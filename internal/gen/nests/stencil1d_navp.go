// Code generated by navpgen. DO NOT EDIT.
//
// Source nest:  Stencil1D (nests.go:39)
// Distribution: block(i), PE count bound at run time
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

// stencil1DState is the loop-carried state of one Stencil1D agent: the
// outer loop index that must survive every hop.
type stencil1DState struct {
	R int // loop variable r
}

// Stencil1DDSC is the DSC'd NavP program for Stencil1D under block(i):
// one agent executes the nest in sequential order, hopping to the
// owner of each distributed piece and carrying the folded loop state.
func Stencil1DDSC(sys *navp.System, pes int, in [][]float64, out [][]float64, rows int, n int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: Stencil1D/dsc: %w", err)
	}
	carry := sys.Var("st")
	err := sys.Inject(0, "Stencil1D/dsc", func(ag *navp.Agent) {
		for r := 0; r < rows; r++ {
			st := &stencil1DState{R: r}
			ag.Set(carry, st, int64(8))
			for p := 0; p < pes; p++ {
				// Hop to the owner of chunk p of i ∈ [1, n - 1).
				ag.Hop(p)
				lo, hi := genrun.BlockRange(p, 1, n-1, pes)
				ag.Compute(float64(5*genrun.BlockLen(p, 1, n-1, pes)), func() {
					r := st.R
					for i := lo; i < hi; i++ {
						out[r][i] = 0.25*in[r][i-1] + 0.5*in[r][i] + 0.25*in[r][i+1]
					}
				})
			}
		}
	})
	if err != nil {
		return err
	}
	return sys.Run()
}

// Stencil1DPipelined is the pipelined NavP program for Stencil1D: one agent
// per outer index r, injected in order at the first owner so the
// agents follow each other through the PEs.
func Stencil1DPipelined(sys *navp.System, pes int, in [][]float64, out [][]float64, rows int, n int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: Stencil1D/pipe: %w", err)
	}
	carry := sys.Var("st")
	for r := 0; r < rows; r++ {
		st := &stencil1DState{R: r}
		err := sys.Inject(0, fmt.Sprintf("Stencil1D/pipe/%d", r), func(ag *navp.Agent) {
			ag.Set(carry, st, int64(8))
			for p := 0; p < pes; p++ {
				// Hop to the owner of chunk p of i ∈ [1, n - 1).
				ag.Hop(p)
				lo, hi := genrun.BlockRange(p, 1, n-1, pes)
				ag.Compute(float64(5*genrun.BlockLen(p, 1, n-1, pes)), func() {
					r := st.R
					for i := lo; i < hi; i++ {
						out[r][i] = 0.25*in[r][i-1] + 0.5*in[r][i] + 0.25*in[r][i+1]
					}
				})
			}
		})
		if err != nil {
			return err
		}
	}
	return sys.Run()
}

// Stencil1DPhaseShifted is the phase-shifted NavP program for Stencil1D: each
// pipelined agent's visit sequence is rotated so agents enter the
// network at distinct PEs and all PEs compute from the start.
func Stencil1DPhaseShifted(sys *navp.System, pes int, in [][]float64, out [][]float64, rows int, n int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: Stencil1D/phase: %w", err)
	}
	carry := sys.Var("st")
	for r := 0; r < rows; r++ {
		st := &stencil1DState{R: r}
		rot := genrun.Rotation(r, pes)
		err := sys.Inject(rot, fmt.Sprintf("Stencil1D/phase/%d", r), func(ag *navp.Agent) {
			ag.Set(carry, st, int64(8))
			for q := 0; q < pes; q++ {
				p := (q + rot) % pes
				// Hop to the owner of chunk p of i ∈ [1, n - 1).
				ag.Hop(p)
				lo, hi := genrun.BlockRange(p, 1, n-1, pes)
				ag.Compute(float64(5*genrun.BlockLen(p, 1, n-1, pes)), func() {
					r := st.R
					for i := lo; i < hi; i++ {
						out[r][i] = 0.25*in[r][i-1] + 0.5*in[r][i] + 0.25*in[r][i+1]
					}
				})
			}
		})
		if err != nil {
			return err
		}
	}
	return sys.Run()
}

// stencil1DGroup keys a plan item to its pipelined agent: one agent per
// outer index r.
func stencil1DGroup(it core.Item) string {
	var r, p int
	fmt.Sscanf(it.ID, "it(%d,%d)", &r, &p)
	return fmt.Sprintf("g%d", r)
}

// Stencil1DPlan builds the execution plan of the generated program for
// variant v: one item per hop stop, each declaring the footprint
// cells it touches, DSC'd in sequential order and rewritten per the
// variant. core.Check proves the rewrite preserves the nest's
// sequential dependences; planfootprint audits the bodies against
// the declared cells.
func Stencil1DPlan(v genrun.Variant, pes int, in [][]float64, out [][]float64, rows int, n int) *core.Plan {
	var items []core.Item
	for r := 0; r < rows; r++ {
		for p := 0; p < pes; p++ {
			items = append(items, core.Item{
				ID:    fmt.Sprintf("it(%d,%d)", r, p),
				Node:  p,
				Flops: float64(5 * genrun.BlockLen(p, 1, n-1, pes)),
				Accesses: []core.Access{
					{Cell: fmt.Sprintf("out(%d,b%d)", r, p), Write: true},
					{Cell: fmt.Sprintf("in(%d,b%d)", r, genrun.BlockOwner(genrun.BlockLo(p, 1, n-1, pes)-1, 1, n-1, pes))},
					{Cell: fmt.Sprintf("in(%d,b%d)", r, genrun.BlockOwner(genrun.BlockHi(p, 1, n-1, pes)-1-1, 1, n-1, pes))},
					{Cell: fmt.Sprintf("in(%d,b%d)", r, p)},
					{Cell: fmt.Sprintf("in(%d,b%d)", r, genrun.BlockOwner(genrun.BlockLo(p, 1, n-1, pes)+1, 1, n-1, pes))},
					{Cell: fmt.Sprintf("in(%d,b%d)", r, genrun.BlockOwner(genrun.BlockHi(p, 1, n-1, pes)-1+1, 1, n-1, pes))},
				},
				Fn: func() {
					lo, hi := genrun.BlockRange(p, 1, n-1, pes)
					for i := lo; i < hi; i++ {
						out[r][i] = 0.25*in[r][i-1] + 0.5*in[r][i] + 0.25*in[r][i+1]
					}
				},
			})
		}
	}
	plan := core.DSC("Stencil1D", items, int64(8))
	switch v {
	case genrun.Pipelined:
		plan = core.Pipeline(plan, stencil1DGroup)
	case genrun.PhaseShifted:
		plan = core.PhaseShift(core.Pipeline(plan, stencil1DGroup), nil)
	}
	return plan
}

// Stencil1DCheckPlans re-proves, at the given shape, that every generated
// variant of Stencil1D preserves the sequential nest's dependences.
func Stencil1DCheckPlans(pes int, rows int, n int) error {
	for _, v := range genrun.Variants {
		viol, err := core.Check(Stencil1DPlan(v, pes, nil, nil, rows, n))
		if err != nil {
			return fmt.Errorf("navpgen: Stencil1D/%s: %w", v, err)
		}
		if len(viol) != 0 {
			return fmt.Errorf("navpgen: Stencil1D/%s: %d dependence violation(s), first: %v", v, len(viol), viol[0])
		}
	}
	return nil
}

func init() {
	for _, v := range genrun.Variants {
		genrun.Register(genrun.Program{
			Nest:       "Stencil1D",
			Variant:    v,
			Dist:       "block(i)",
			SizeParams: []string{"rows", "n"},
			Run: func(sys *navp.System, pes int, sizes []int, seed int64) error {
				if len(sizes) != 2 {
					return fmt.Errorf("navpgen: Stencil1D: want 2 size(s) (rows, n), got %d", len(sizes))
				}
				rows := sizes[0]
				n := sizes[1]
				in := genrun.RandGrid[float64](rows, (n-1)+1, seed)
				out := genrun.RandGrid[float64](rows, n-1, seed+1)
				wantOut := genrun.CloneGrid(out)
				Stencil1D(in, wantOut, rows, n)
				var err error
				switch v {
				case genrun.DSC:
					err = Stencil1DDSC(sys, pes, in, out, rows, n)
				case genrun.Pipelined:
					err = Stencil1DPipelined(sys, pes, in, out, rows, n)
				default:
					err = Stencil1DPhaseShifted(sys, pes, in, out, rows, n)
				}
				if err != nil {
					return err
				}
				return genrun.CompareGrid("out", out, wantOut, 1e-12)
			},
		})
	}
}
