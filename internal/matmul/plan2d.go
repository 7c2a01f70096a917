package matmul

import (
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/matrix"
)

// This file derives the 2-D stages of Figures 13 and 15 mechanically:
// the sequential k-loop, with the B deposits of the second-dimension
// data distribution made explicit, goes through DSC → Pipeline (one
// thread per algorithmic-block carrier) → PhaseShift (the reverse
// staggering), and the EP/EC event protocol becomes explicit plan Deps.
// Pipeline2D staggers carriers by their row/column only (they share
// paths, pairing in injection order); Phase2D staggers by both indices
// (Figure 15's (NB−1−mi−mk) arithmetic), which makes the per-cell
// pairing order cell-dependent. The tests cross-validate both derived
// plans against the hand-written stages, completing the paper's claim
// for the second dimension.
//
// Plan nodes are virtual cells (vi·NB + vj) mapped onto the P×P grid by
// the executor's nodeOf.

// depositID / computeID name the per-(cell, k) items.
func depositID(i, j, k int) string {
	return "bdep(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")"
}

func computeID(i, j, k int) string {
	return "comp(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")"
}

// BuildPlan2D returns the mechanically derived plan for DSC2D,
// Pipeline2D, or Phase2D along with its output holder and the
// virtual-cell-to-PE mapping to pass to core.Execute.
//
// For DSC2D the carriers move whole block rows and columns (Figure 11):
// one compute item per cell covering the full dot product, one deposit
// per cell, no EC chain (each cell is visited once per carrier kind).
// The per-block stages decompose the same cells by k.
func BuildPlan2D(stage Stage, cfg Config) (*core.Plan, *PlanProduct, func(int) int, error) {
	if stage != DSC2D && stage != Pipeline2D && stage != Phase2D {
		return nil, nil, nil, fmt.Errorf("matmul: BuildPlan2D derives the 2-D stages; got %v", stage)
	}
	if err := cfg.Validate(stage); err != nil {
		return nil, nil, nil, err
	}
	nb := cfg.N / cfg.BS
	vpp := nb / cfg.P
	elem := cfg.HW.ElemBytes
	if elem == 0 {
		elem = 8
	}

	a, b, c := blockedInputs(cfg)
	out := &PlanProduct{C: c}

	bs := float64(cfg.BS)
	blockFlops := 2 * bs * bs * bs
	cell := func(i, j int) int { return i*nb + j }
	nodeOf := func(v int) int {
		vi, vj := v/nb, v%nb
		return (vi/vpp)*cfg.P + vj/vpp
	}
	if stage == DSC2D {
		plan := buildDSC2DPlan(cfg, nb, elem, a, b, out, cell)
		return plan, out, nodeOf, nil
	}
	// One buffer cell per (cell, k) pair, mirroring the runtime's per-k
	// deposit keys: deposit k writes it, compute k reads it. Deposits of
	// different k therefore commute (their pairing, not their order,
	// carries the semantics), which is what legalizes Figure 15's
	// cell-dependent pair reordering.
	slot := func(i, j, k int) string {
		return "slot(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + "," + strconv.Itoa(k) + ")"
	}

	// The sequential program, with the deposit of B(k,j) at cell (i,j)
	// made explicit just before the compute that consumes it — the
	// second-dimension data distribution's movement as sequential items.
	var items []core.Item
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			for k := 0; k < nb; k++ {
				i, j, k := i, j, k
				items = append(items,
					core.Item{
						ID: depositID(i, j, k), Node: cell(i, j),
						Accesses: []core.Access{{Cell: slot(i, j, k), Write: true}},
					},
					core.Item{
						ID: computeID(i, j, k), Node: cell(i, j), Flops: blockFlops,
						Accesses: []core.Access{
							{Cell: slot(i, j, k)},
							{Cell: "C(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")", Write: true, Commutative: true},
						},
						Fn: func() { matrix.MulAdd(out.C.Block(i, j), a.Block(i, k), b.Block(k, j)) },
					})
			}
		}
	}

	// Pipeline: one thread per carrier. Deposits of B(k, j) across all i
	// become BCarrier(k, j); computes of A(i, k) across all j become
	// ACarrier(i, k).
	groupOf := func(it core.Item) string {
		var i, j, k int
		if _, err := fmt.Sscanf(it.ID, "bdep(%d,%d,%d)", &i, &j, &k); err == nil {
			return "B(" + strconv.Itoa(k) + "," + strconv.Itoa(j) + ")"
		}
		fmt.Sscanf(it.ID, "comp(%d,%d,%d)", &i, &j, &k)
		return "A(" + strconv.Itoa(i) + "," + strconv.Itoa(k) + ")"
	}
	plan := core.Pipeline(core.DSC("matmul2d", items, int64(cfg.BS)*int64(cfg.BS)*int64(elem)), groupOf)

	// Phase shift: the reverse staggering. Figure 13 (Pipeline2D) rotates
	// ACarrier(i,k) by (NB−1−i) and BCarrier(k,j) by (NB−1−j) — all
	// carriers of a row/column share one path and pair in injection
	// order, so every cell sees the pairs in plain k order. Figure 15
	// (Phase2D) rotates by (NB−1−i−k) and (NB−1−j−k), spreading the
	// carriers of a row across the ring; cell (i,j) then sees pair k at
	// position t with k = (t+NB−1−i−j) mod NB.
	plan = core.PhaseShiftNamed(plan, func(name string, length int) int {
		var x, y int
		if _, err := fmt.Sscanf(name, "matmul2d/A(%d,%d)", &x, &y); err == nil {
			if stage == Phase2D {
				return ((nb-1-x-y)%nb + nb) % nb
			}
			return (nb - 1 - x) % nb
		}
		fmt.Sscanf(name, "matmul2d/B(%d,%d)", &x, &y)
		if stage == Phase2D {
			return ((nb-1-y-x)%nb + nb) % nb
		}
		return (nb - 1 - y) % nb
	})

	// The EP/EC protocol as explicit dependences: EP — deposit k before
	// compute k; EC — the compute at pairing position t before the
	// deposit at position t+1 (the single B buffer per cell).
	kAt := func(i, j, t int) int {
		if stage == Phase2D {
			return ((t+nb-1-i-j)%nb + nb) % nb
		}
		return t
	}
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			for t := 0; t < nb; t++ {
				k := kAt(i, j, t)
				plan.Deps = append(plan.Deps, core.Dep{
					Before: depositID(i, j, k), After: computeID(i, j, k),
				})
				if t+1 < nb {
					plan.Deps = append(plan.Deps, core.Dep{
						Before: computeID(i, j, k), After: depositID(i, j, kAt(i, j, t+1)),
					})
				}
			}
		}
	}

	return plan, out, nodeOf, nil
}

// buildDSC2DPlan derives Figure 11: whole-row RowCarriers consuming
// whole-column deposits, one visit per cell.
func buildDSC2DPlan(cfg Config, nb, elem int, a, b *matrix.Blocked, out *PlanProduct,
	cell func(i, j int) int) *core.Plan {
	bs := float64(cfg.BS)
	visitFlops := 2 * bs * bs * float64(cfg.N)
	colSlot := func(i, j int) string { return "colslot(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")" }

	var items []core.Item
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			i, j := i, j
			items = append(items,
				core.Item{
					ID: "cdep(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")", Node: cell(i, j),
					Accesses: []core.Access{{Cell: colSlot(i, j), Write: true}},
				},
				core.Item{
					ID: "rvisit(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")", Node: cell(i, j),
					Flops: visitFlops,
					Accesses: []core.Access{
						{Cell: colSlot(i, j)},
						{Cell: "C(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")", Write: true, Commutative: true},
					},
					Fn: func() {
						c := out.C.Block(i, j)
						for k := 0; k < nb; k++ {
							matrix.MulAdd(c, a.Block(i, k), b.Block(k, j))
						}
					},
				})
		}
	}
	groupOf := func(it core.Item) string {
		var i, j int
		if _, err := fmt.Sscanf(it.ID, "cdep(%d,%d)", &i, &j); err == nil {
			return "Col(" + strconv.Itoa(j) + ")"
		}
		fmt.Sscanf(it.ID, "rvisit(%d,%d)", &i, &j)
		return "Row(" + strconv.Itoa(i) + ")"
	}
	rowBytes := int64(cfg.N) * int64(cfg.BS) * int64(elem)
	plan := core.Pipeline(core.DSC("matmul2d", items, rowBytes), groupOf)
	plan = core.PhaseShiftNamed(plan, func(name string, length int) int {
		var x int
		if _, err := fmt.Sscanf(name, "matmul2d/Row(%d)", &x); err == nil {
			return (nb - 1 - x) % nb
		}
		fmt.Sscanf(name, "matmul2d/Col(%d)", &x)
		return (nb - 1 - x) % nb
	})
	for i := 0; i < nb; i++ {
		for j := 0; j < nb; j++ {
			plan.Deps = append(plan.Deps, core.Dep{
				Before: "cdep(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")",
				After:  "rvisit(" + strconv.Itoa(i) + "," + strconv.Itoa(j) + ")",
			})
		}
	}
	return plan
}
