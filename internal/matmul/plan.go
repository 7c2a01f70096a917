package matmul

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/matrix"
)

// This file derives the 1-D stages of the case study *mechanically*,
// through the transformation framework of internal/core, instead of
// hand-transcribing the paper's pseudocode: the sequential block-grain
// item list goes through DSC → Pipeline → PhaseShift and is executed by
// the generic plan executor. The tests cross-validate the derived plans
// against the hand-written stages — the paper's thesis that the
// transformations are "highly mechanical" made executable.

// PlanProduct holds the shared output the plan items accumulate into.
type PlanProduct struct {
	C *matrix.Blocked
}

// Dense assembles the accumulated product.
func (p *PlanProduct) Dense() *matrix.Dense { return p.C.Assemble() }

// BuildPlan returns the mechanically derived plan for a 1-D stage
// (Sequential, DSC1D, Pipeline1D, or Phase1D at block granularity)
// along with the output holder its items write to.
//
// Each item is one virtual-node visit of the paper's Figure 5 loop:
// update C(mi, vj) from block row mi of A and block column vj of B. Its
// declared accesses — a read of row mi and a commutative reduction into
// C(mi, vj) — are what license the pipeline split (by row) and the phase
// rotation, checkable with core.Check.
func BuildPlan(stage Stage, cfg Config) (*core.Plan, *PlanProduct, error) {
	if stage.TwoDimensional() {
		return nil, nil, fmt.Errorf("matmul: BuildPlan covers the 1-D stages; %v is 2-D", stage)
	}
	if err := cfg.Validate(stage); err != nil {
		return nil, nil, err
	}
	nb := cfg.N / cfg.BS
	elem := cfg.HW.ElemBytes
	if elem == 0 {
		elem = 8
	}

	a, b, c := blockedInputs(cfg)
	out := &PlanProduct{C: c}

	bs := float64(cfg.BS)
	visitFlops := 2 * bs * bs * float64(cfg.N)
	node := func(vj int) int {
		if stage == Sequential {
			return 0
		}
		return vj / (nb / cfg.P)
	}

	var items []core.Item
	for mi := 0; mi < nb; mi++ {
		for vj := 0; vj < nb; vj++ {
			mi, vj := mi, vj
			items = append(items, core.Item{
				ID:    "visit(" + strconv.Itoa(mi) + "," + strconv.Itoa(vj) + ")",
				Node:  node(vj),
				Flops: visitFlops,
				Accesses: []core.Access{
					{Cell: "Arow" + strconv.Itoa(mi)},
					{Cell: "Bcol" + strconv.Itoa(vj)},
					{Cell: "C(" + strconv.Itoa(mi) + "," + strconv.Itoa(vj) + ")", Write: true, Commutative: true},
				},
				Fn: func() {
					c := out.C.Block(mi, vj)
					for k := 0; k < nb; k++ {
						matrix.MulAdd(c, a.Block(mi, k), b.Block(k, vj))
					}
				},
			})
		}
	}

	carry := int64(cfg.N) * int64(cfg.BS) * int64(elem) // the mA row
	plan := core.DSC("RowCarrier", items, carry)
	if stage == Sequential || stage == DSC1D {
		return plan, out, nil
	}

	groupByRow := func(it core.Item) string {
		var mi, vj int
		fmt.Sscanf(it.ID, "visit(%d,%d)", &mi, &vj)
		return "row" + strconv.Itoa(mi)
	}
	plan = core.Pipeline(plan, groupByRow)
	if stage == Pipeline1D {
		return plan, out, nil
	}

	// Phase1D: stagger thread mi to enter at the PE-level offset the
	// hand-written stage uses (see stages1d.go), expressed as an item
	// rotation: thread mi starts at the first column of PE
	// (P−1−owner(mi)) mod P.
	vpp := nb / cfg.P
	plan = core.PhaseShift(plan, func(threadIdx, length int) int {
		chunk := threadIdx / vpp
		return ((cfg.P - 1 - chunk) % cfg.P * vpp) % length
	})
	return plan, out, nil
}
