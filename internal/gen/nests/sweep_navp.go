// Code generated by navpgen. DO NOT EDIT.
//
// Source nest:  Sweep (nests.go:54)
// Distribution: cyclic(j), PE count bound at run time
// Variants:     dsc, pipe, phase (DESIGN.md §17)
//
// Regenerate:
//
//	go run repro/cmd/navpgen -pkg <package dir>
package nests

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gen/genrun"
	"repro/internal/navp"
)

// sweepState is the loop-carried state of one Sweep agent: the
// outer loop index that must survive every hop.
type sweepState struct {
	I int // loop variable i
}

// SweepDSC is the DSC'd NavP program for Sweep under cyclic(j):
// one agent executes the nest in sequential order, hopping to the
// owner of each distributed piece and carrying the folded loop state.
func SweepDSC(sys *navp.System, pes int, in []int64, out [][]int64, rows int, cols int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: Sweep/dsc: %w", err)
	}
	carry := sys.Var("st")
	err := sys.Inject(0, "Sweep/dsc", func(ag *navp.Agent) {
		for i := 0; i < rows; i++ {
			st := &sweepState{I: i}
			ag.Set(carry, st, int64(8+8))
			for j := 0; j < cols; j++ {
				// Hop to the cyclic owner of index j.
				ag.Hop(genrun.CyclicOwner(j, 0, pes))
				ag.Compute(float64(3), func() {
					i := st.I
					out[i][j] += in[i] * int64(i+j)
				})
			}
		}
	})
	if err != nil {
		return err
	}
	return sys.Run()
}

// SweepPipelined is the pipelined NavP program for Sweep: one agent
// per outer index i, injected in order at the first owner so the
// agents follow each other through the PEs.
func SweepPipelined(sys *navp.System, pes int, in []int64, out [][]int64, rows int, cols int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: Sweep/pipe: %w", err)
	}
	carry := sys.Var("st")
	for i := 0; i < rows; i++ {
		st := &sweepState{I: i}
		err := sys.Inject(0, fmt.Sprintf("Sweep/pipe/%d", i), func(ag *navp.Agent) {
			ag.Set(carry, st, int64(8+8))
			for j := 0; j < cols; j++ {
				// Hop to the cyclic owner of index j.
				ag.Hop(genrun.CyclicOwner(j, 0, pes))
				ag.Compute(float64(3), func() {
					i := st.I
					out[i][j] += in[i] * int64(i+j)
				})
			}
		})
		if err != nil {
			return err
		}
	}
	return sys.Run()
}

// SweepPhaseShifted is the phase-shifted NavP program for Sweep: each
// pipelined agent's visit sequence is rotated so agents enter the
// network at distinct PEs and all PEs compute from the start.
func SweepPhaseShifted(sys *navp.System, pes int, in []int64, out [][]int64, rows int, cols int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: Sweep/phase: %w", err)
	}
	carry := sys.Var("st")
	for i := 0; i < rows; i++ {
		st := &sweepState{I: i}
		span := cols
		rot := genrun.Rotation(i, span)
		err := sys.Inject(genrun.CyclicOwner(0+rot, 0, pes), fmt.Sprintf("Sweep/phase/%d", i), func(ag *navp.Agent) {
			ag.Set(carry, st, int64(8+8))
			for q := 0; q < span; q++ {
				j := (q + rot) % span
				// Hop to the cyclic owner of index j.
				ag.Hop(genrun.CyclicOwner(j, 0, pes))
				ag.Compute(float64(3), func() {
					i := st.I
					out[i][j] += in[i] * int64(i+j)
				})
			}
		})
		if err != nil {
			return err
		}
	}
	return sys.Run()
}

// sweepGroup keys a plan item to its pipelined agent: one agent per
// outer index i.
func sweepGroup(it core.Item) string {
	var i, j int
	fmt.Sscanf(it.ID, "it(%d,%d)", &i, &j)
	return fmt.Sprintf("g%d", i)
}

// SweepPlan builds the execution plan of the generated program for
// variant v: one item per hop stop, each declaring the footprint
// cells it touches, DSC'd in sequential order and rewritten per the
// variant. core.Check proves the rewrite preserves the nest's
// sequential dependences; planfootprint audits the bodies against
// the declared cells.
func SweepPlan(v genrun.Variant, pes int, in []int64, out [][]int64, rows int, cols int) *core.Plan {
	var items []core.Item
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			items = append(items, core.Item{
				ID:    fmt.Sprintf("it(%d,%d)", i, j),
				Node:  genrun.CyclicOwner(j, 0, pes),
				Flops: float64(3),
				Accesses: []core.Access{
					{Cell: fmt.Sprintf("out(%d,%d)", i, j), Write: true, Commutative: true},
					{Cell: fmt.Sprintf("in(%d)", i)},
				},
				Fn: func() {
					out[i][j] += in[i] * int64(i+j)
				},
			})
		}
	}
	plan := core.DSC("Sweep", items, int64(8+8))
	switch v {
	case genrun.Pipelined:
		plan = core.Pipeline(plan, sweepGroup)
	case genrun.PhaseShifted:
		plan = core.PhaseShift(core.Pipeline(plan, sweepGroup), nil)
	}
	return plan
}

// SweepCheckPlans re-proves, at the given shape, that every generated
// variant of Sweep preserves the sequential nest's dependences.
func SweepCheckPlans(pes int, rows int, cols int) error {
	for _, v := range genrun.Variants {
		viol, err := core.Check(SweepPlan(v, pes, nil, nil, rows, cols))
		if err != nil {
			return fmt.Errorf("navpgen: Sweep/%s: %w", v, err)
		}
		if len(viol) != 0 {
			return fmt.Errorf("navpgen: Sweep/%s: %d dependence violation(s), first: %v", v, len(viol), viol[0])
		}
	}
	return nil
}

func init() {
	for _, v := range genrun.Variants {
		genrun.Register(genrun.Program{
			Nest:       "Sweep",
			Variant:    v,
			Dist:       "cyclic(j)",
			SizeParams: []string{"rows", "cols"},
			Run: func(sys *navp.System, pes int, sizes []int, seed int64) error {
				if len(sizes) != 2 {
					return fmt.Errorf("navpgen: Sweep: want 2 size(s) (rows, cols), got %d", len(sizes))
				}
				rows := sizes[0]
				cols := sizes[1]
				in := genrun.RandVec[int64](rows, seed)
				out := genrun.RandGrid[int64](rows, cols, seed+1)
				wantOut := genrun.CloneGrid(out)
				Sweep(in, wantOut, rows, cols)
				var err error
				switch v {
				case genrun.DSC:
					err = SweepDSC(sys, pes, in, out, rows, cols)
				case genrun.Pipelined:
					err = SweepPipelined(sys, pes, in, out, rows, cols)
				default:
					err = SweepPhaseShifted(sys, pes, in, out, rows, cols)
				}
				if err != nil {
					return err
				}
				return genrun.CompareGrid("out", out, wantOut, 0)
			},
		})
	}
}
