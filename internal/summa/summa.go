// Package summa implements a SUMMA-style parallel matrix multiply as the
// stand-in for the paper's ScaLAPACK comparator (§5, the "ScaLAPACK(#)"
// columns of Tables 1, 3, and 4).
//
// ScaLAPACK's PDGEMM is SUMMA-based: at step k, the owners of block
// column k of A broadcast their panel along their process rows, the
// owners of block row k of B broadcast along their process columns, and
// every rank accumulates C += A_panel × B_panel. ScaLAPACK's logical LCM
// hybrid algorithmic blocking (the paper's footnote: "not controlled by
// users") is an internal tiling refinement; this implementation uses
// plain block distribution with the same per-step broadcast structure,
// which preserves the comparator's role in the tables: a tuned library
// baseline with pipelined panel broadcasts that beats the straightforward
// Gentleman code and trails the best NavP stage at scale. The 1-D variant
// (grid 1×P) serves Table 1's ScaLAPACK column.
package summa

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/mp"
)

// Config describes one run.
type Config struct {
	// N is the matrix order, BS the algorithmic block size. The process
	// grid is PR×PC. With the default contiguous distribution N/BS must
	// be a multiple of both PR and PC; the Cyclic distribution accepts
	// any block count.
	N, BS, PR, PC int
	// Cyclic selects the block-cyclic distribution ScaLAPACK uses (block
	// (i,j) on rank (i mod PR, j mod PC)) instead of contiguous chunks.
	Cyclic bool
	// Phantom selects shape-only blocks.
	Phantom bool
	// Real selects the real-goroutine backend.
	Real bool
	// HW is the simulated hardware (ignored when Real).
	HW machine.Config
	// Seed feeds the input generator.
	Seed int64
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.N <= 0 || c.BS <= 0 || c.PR <= 0 || c.PC <= 0 {
		return fmt.Errorf("summa: N=%d BS=%d grid %d×%d must be positive", c.N, c.BS, c.PR, c.PC)
	}
	if c.N%c.BS != 0 {
		return fmt.Errorf("summa: N=%d must be a multiple of BS=%d", c.N, c.BS)
	}
	if nb := c.N / c.BS; !c.Cyclic && (nb%c.PR != 0 || nb%c.PC != 0) {
		return fmt.Errorf("summa: block grid order %d must be a multiple of both %d and %d (or use Cyclic)", nb, c.PR, c.PC)
	}
	if c.Phantom && c.Real {
		return fmt.Errorf("summa: phantom blocks have no real-backend value")
	}
	return nil
}

// Result reports one run.
type Result struct {
	Seconds float64
	C       *matrix.Dense
}

// Run executes the SUMMA multiply.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var world *mp.World
	if cfg.Real {
		world = mp.NewRealWorld(cfg.PR * cfg.PC)
	} else {
		world = mp.NewSimWorld(cfg.HW, cfg.PR*cfg.PC)
	}
	st := newState(cfg)
	if err := world.Run(st.program); err != nil {
		return nil, fmt.Errorf("summa: %w", err)
	}
	res := &Result{}
	if !cfg.Real {
		res.Seconds = world.VirtualTime()
	}
	if !cfg.Phantom {
		res.C = st.out.Assemble()
	}
	return res, nil
}

// Inputs returns the dense inputs generated for cfg (for verification).
func Inputs(cfg Config) (a, b *matrix.Dense) {
	return matrix.RandomPair(matrix.NewSeeded(cfg.Seed), cfg.N)
}

type state struct {
	cfg  Config
	cart mp.Cart2D
	NB   int // global block-grid order
	elem int
	A, B *matrix.Blocked
	out  *matrix.Blocked
}

func newState(cfg Config) *state {
	st := &state{cfg: cfg, cart: mp.NewCart2D(cfg.PR, cfg.PC), NB: cfg.N / cfg.BS}
	st.elem = cfg.HW.ElemBytes
	if st.elem == 0 {
		st.elem = 8
	}
	if cfg.Phantom {
		st.A = matrix.NewBlocked(cfg.N, cfg.BS, true)
		st.B = matrix.NewBlocked(cfg.N, cfg.BS, true)
		st.out = matrix.NewBlocked(cfg.N, cfg.BS, true)
	} else {
		st.A, st.B = matrix.RandomBlockedPair(matrix.NewSeeded(cfg.Seed), cfg.N, cfg.BS)
		st.out = matrix.NewBlocked(cfg.N, cfg.BS, false)
	}
	return st
}

// rowOwner / colOwner map a global block index to its owner coordinate
// under the selected distribution.
func (st *state) rowOwner(gi int) int {
	if st.cfg.Cyclic {
		return gi % st.cfg.PR
	}
	return gi / (st.NB / st.cfg.PR)
}

func (st *state) colOwner(gj int) int {
	if st.cfg.Cyclic {
		return gj % st.cfg.PC
	}
	return gj / (st.NB / st.cfg.PC)
}

// localRows / localCols enumerate the global block indices owned by a
// grid coordinate.
func (st *state) localRows(row int) []int {
	var out []int
	for gi := 0; gi < st.NB; gi++ {
		if st.rowOwner(gi) == row {
			out = append(out, gi)
		}
	}
	return out
}

func (st *state) localCols(col int) []int {
	var out []int
	for gj := 0; gj < st.NB; gj++ {
		if st.colOwner(gj) == col {
			out = append(out, gj)
		}
	}
	return out
}

// program is the SPMD body: for each global block index k, broadcast the
// A panel along rows and the B panel along columns, then accumulate.
func (st *state) program(r *mp.Rank) {
	row, col := st.cart.Coords(r.ID())
	myRows, myCols := st.localRows(row), st.localCols(col)

	// Local C blocks, zeroed.
	c := make([][]*matrix.Block, len(myRows))
	for li, gi := range myRows {
		c[li] = make([]*matrix.Block, len(myCols))
		for lj, gj := range myCols {
			a := st.A.Block(gi, 0)
			b := st.B.Block(0, gj)
			if st.cfg.Phantom {
				c[li][lj] = matrix.NewPhantomBlock(gi, gj, a.Rows, b.Cols)
			} else {
				c[li][lj] = matrix.NewBlock(gi, gj, a.Rows, b.Cols)
			}
		}
	}

	aPanel := make([]*matrix.Block, len(myRows))
	bPanel := make([]*matrix.Block, len(myCols))
	for k := 0; k < st.NB; k++ {
		// A(:,k) panel: owned by the ranks in grid column colOwner(k);
		// broadcast along each grid row.
		if st.colOwner(k) == col {
			for li, gi := range myRows {
				aPanel[li] = st.A.Block(gi, k)
			}
			for pc := 0; pc < st.cfg.PC; pc++ {
				if pc == col {
					continue
				}
				for li := range myRows {
					r.Send(st.cart.RankOf(row, pc), tagAPanel(k), aPanel[li], aPanel[li].Bytes(st.elem))
				}
			}
		} else {
			src := st.cart.RankOf(row, st.colOwner(k))
			for li := range myRows {
				aPanel[li] = r.Recv(src, tagAPanel(k)).(*matrix.Block)
			}
		}
		// B(k,:) panel: owned by the ranks in grid row rowOwner(k);
		// broadcast along each grid column.
		if st.rowOwner(k) == row {
			for lj, gj := range myCols {
				bPanel[lj] = st.B.Block(k, gj)
			}
			for pr := 0; pr < st.cfg.PR; pr++ {
				if pr == row {
					continue
				}
				for lj := range myCols {
					r.Send(st.cart.RankOf(pr, col), tagBPanel(k), bPanel[lj], bPanel[lj].Bytes(st.elem))
				}
			}
		} else {
			src := st.cart.RankOf(st.rowOwner(k), col)
			for lj := range myCols {
				bPanel[lj] = r.Recv(src, tagBPanel(k)).(*matrix.Block)
			}
		}
		// Rank-1 (panel) update.
		for li := range myRows {
			for lj := range myCols {
				a, b, cb := aPanel[li], bPanel[lj], c[li][lj]
				r.Compute(a.Flops(b.Cols), func() { matrix.MulAdd(cb, a, b) })
			}
		}
	}

	// Publish results (disjoint blocks per rank).
	if !st.cfg.Phantom {
		for li, gi := range myRows {
			for lj, gj := range myCols {
				st.out.SetBlock(gi, gj, c[li][lj])
			}
		}
	}
}

func tagAPanel(k int) int { return 2 * k }
func tagBPanel(k int) int { return 2*k + 1 }
