// Code generated by navpgen. DO NOT EDIT.
//
// Source nest:  MatmulIJK (nests.go:22)
// Distribution: block(j), PE count bound at run time
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

// matmulIJKState is the loop-carried state of one MatmulIJK agent: the
// outer loop index that must survive every hop.
type matmulIJKState struct {
	I int // loop variable i
}

// MatmulIJKDSC is the DSC'd NavP program for MatmulIJK under block(j):
// one agent executes the nest in sequential order, hopping to the
// owner of each distributed piece and carrying the folded loop state.
func MatmulIJKDSC(sys *navp.System, pes int, a [][]float64, b [][]float64, c [][]float64, n int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: MatmulIJK/dsc: %w", err)
	}
	carry := sys.Var("st")
	err := sys.Inject(0, "MatmulIJK/dsc", func(ag *navp.Agent) {
		for i := 0; i < n; i++ {
			st := &matmulIJKState{I: i}
			ag.Set(carry, st, int64(8+8*n))
			for p := 0; p < pes; p++ {
				// Hop to the owner of chunk p of j ∈ [0, n).
				ag.Hop(p)
				lo, hi := genrun.BlockRange(p, 0, n, pes)
				ag.Compute(float64(2*genrun.BlockLen(p, 0, n, pes)*n), func() {
					i := st.I
					for j := lo; j < hi; j++ {
						for k := 0; k < n; k++ {
							c[i][j] += a[i][k] * b[k][j]
						}
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

// MatmulIJKPipelined is the pipelined NavP program for MatmulIJK: one agent
// per outer index i, injected in order at the first owner so the
// agents follow each other through the PEs.
func MatmulIJKPipelined(sys *navp.System, pes int, a [][]float64, b [][]float64, c [][]float64, n int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: MatmulIJK/pipe: %w", err)
	}
	carry := sys.Var("st")
	for i := 0; i < n; i++ {
		st := &matmulIJKState{I: i}
		err := sys.Inject(0, fmt.Sprintf("MatmulIJK/pipe/%d", i), func(ag *navp.Agent) {
			ag.Set(carry, st, int64(8+8*n))
			for p := 0; p < pes; p++ {
				// Hop to the owner of chunk p of j ∈ [0, n).
				ag.Hop(p)
				lo, hi := genrun.BlockRange(p, 0, n, pes)
				ag.Compute(float64(2*genrun.BlockLen(p, 0, n, pes)*n), func() {
					i := st.I
					for j := lo; j < hi; j++ {
						for k := 0; k < n; k++ {
							c[i][j] += a[i][k] * b[k][j]
						}
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

// MatmulIJKPhaseShifted is the phase-shifted NavP program for MatmulIJK: each
// pipelined agent's visit sequence is rotated so agents enter the
// network at distinct PEs and all PEs compute from the start.
func MatmulIJKPhaseShifted(sys *navp.System, pes int, a [][]float64, b [][]float64, c [][]float64, n int) error {
	if err := genrun.CheckPEs(sys, pes); err != nil {
		return fmt.Errorf("navpgen: MatmulIJK/phase: %w", err)
	}
	carry := sys.Var("st")
	for i := 0; i < n; i++ {
		st := &matmulIJKState{I: i}
		rot := genrun.Rotation(i, pes)
		err := sys.Inject(rot, fmt.Sprintf("MatmulIJK/phase/%d", i), func(ag *navp.Agent) {
			ag.Set(carry, st, int64(8+8*n))
			for q := 0; q < pes; q++ {
				p := (q + rot) % pes
				// Hop to the owner of chunk p of j ∈ [0, n).
				ag.Hop(p)
				lo, hi := genrun.BlockRange(p, 0, n, pes)
				ag.Compute(float64(2*genrun.BlockLen(p, 0, n, pes)*n), func() {
					i := st.I
					for j := lo; j < hi; j++ {
						for k := 0; k < n; k++ {
							c[i][j] += a[i][k] * b[k][j]
						}
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

// matmulIJKGroup keys a plan item to its pipelined agent: one agent per
// outer index i.
func matmulIJKGroup(it core.Item) string {
	var i, p int
	fmt.Sscanf(it.ID, "it(%d,%d)", &i, &p)
	return fmt.Sprintf("g%d", i)
}

// MatmulIJKPlan builds the execution plan of the generated program for
// variant v: one item per hop stop, each declaring the footprint
// cells it touches, DSC'd in sequential order and rewritten per the
// variant. core.Check proves the rewrite preserves the nest's
// sequential dependences; planfootprint audits the bodies against
// the declared cells.
func MatmulIJKPlan(v genrun.Variant, pes int, a [][]float64, b [][]float64, c [][]float64, n int) *core.Plan {
	var items []core.Item
	for i := 0; i < n; i++ {
		for p := 0; p < pes; p++ {
			items = append(items, core.Item{
				ID:    fmt.Sprintf("it(%d,%d)", i, p),
				Node:  p,
				Flops: float64(2 * genrun.BlockLen(p, 0, n, pes) * n),
				Accesses: []core.Access{
					{Cell: fmt.Sprintf("c(%d,b%d)", i, p), Write: true, Commutative: true},
					{Cell: fmt.Sprintf("a(%d,*)", i)},
					{Cell: fmt.Sprintf("b(*,b%d)", p)},
				},
				Fn: func() {
					lo, hi := genrun.BlockRange(p, 0, n, pes)
					for j := lo; j < hi; j++ {
						for k := 0; k < n; k++ {
							c[i][j] += a[i][k] * b[k][j]
						}
					}
				},
			})
		}
	}
	plan := core.DSC("MatmulIJK", items, int64(8+8*n))
	switch v {
	case genrun.Pipelined:
		plan = core.Pipeline(plan, matmulIJKGroup)
	case genrun.PhaseShifted:
		plan = core.PhaseShift(core.Pipeline(plan, matmulIJKGroup), nil)
	}
	return plan
}

// MatmulIJKCheckPlans re-proves, at the given shape, that every generated
// variant of MatmulIJK preserves the sequential nest's dependences.
func MatmulIJKCheckPlans(pes int, n int) error {
	for _, v := range genrun.Variants {
		viol, err := core.Check(MatmulIJKPlan(v, pes, nil, nil, nil, n))
		if err != nil {
			return fmt.Errorf("navpgen: MatmulIJK/%s: %w", v, err)
		}
		if len(viol) != 0 {
			return fmt.Errorf("navpgen: MatmulIJK/%s: %d dependence violation(s), first: %v", v, len(viol), viol[0])
		}
	}
	return nil
}

func init() {
	for _, v := range genrun.Variants {
		genrun.Register(genrun.Program{
			Nest:       "MatmulIJK",
			Variant:    v,
			Dist:       "block(j)",
			SizeParams: []string{"n"},
			Run: func(sys *navp.System, pes int, sizes []int, seed int64) error {
				if len(sizes) != 1 {
					return fmt.Errorf("navpgen: MatmulIJK: want 1 size(s) (n), got %d", len(sizes))
				}
				n := sizes[0]
				a := genrun.RandGrid[float64](n, n, seed)
				b := genrun.RandGrid[float64](n, n, seed+1)
				c := genrun.RandGrid[float64](n, n, seed+2)
				wantC := genrun.CloneGrid(c)
				MatmulIJK(a, b, wantC, n)
				var err error
				switch v {
				case genrun.DSC:
					err = MatmulIJKDSC(sys, pes, a, b, c, n)
				case genrun.Pipelined:
					err = MatmulIJKPipelined(sys, pes, a, b, c, n)
				default:
					err = MatmulIJKPhaseShifted(sys, pes, a, b, c, n)
				}
				if err != nil {
					return err
				}
				return genrun.CompareGrid("c", c, wantC, 1e-12)
			},
		})
	}
}
