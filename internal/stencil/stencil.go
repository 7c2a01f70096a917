// Package stencil applies the NavP transformations to a second workload
// — iterative Gauss-Seidel relaxation on a 2-D grid — demonstrating the
// paper's claim that the methodology generalizes beyond matrix
// multiplication ("the transformations can be applied repeatedly, or in
// a hierarchical fashion", §1).
//
// The computation sweeps the grid top-to-bottom, updating each interior
// point from its four neighbours in place. Unlike matrix multiplication,
// successive sweeps carry true dependences: sweep t+1 may not touch a
// chunk until sweep t has finished it (and has refreshed the ghost row
// below it), so:
//
//   - the DSC Transformation applies directly — one migrating thread
//     carries the sweep across the row-distributed grid, hauling the
//     last updated row of each chunk to the next PE as an agent
//     variable, with small GhostCarrier messengers flowing the updated
//     boundary rows backward;
//   - the Pipelining Transformation applies across iterations — sweep
//     t+1 follows sweep t one chunk behind, synchronized by the same
//     node-local events;
//   - the Phase-shifting Transformation does NOT apply: a sweep cannot
//     enter the grid mid-domain, because every chunk depends on its
//     predecessor within the same sweep. The dependence checker of
//     internal/core proves this mechanically (see the tests), which is
//     exactly the safety property that makes the methodology's steps
//     trustworthy.
//
// The parallel versions reproduce the sequential sweep's floating-point
// operations in the same order, so results match the reference exactly,
// not merely within tolerance.
package stencil

import (
	"fmt"
	"strconv"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/navp"
	"repro/internal/trace"
)

// Method selects the implementation.
type Method int

const (
	// Sequential sweeps on one PE (the starting point).
	Sequential Method = iota
	// DSC is one migrating thread sweeping the distributed grid.
	DSC
	// Pipelined overlaps successive sweeps, one chunk apart.
	Pipelined
)

// String returns the method name.
func (m Method) String() string {
	switch m {
	case Sequential:
		return "Sequential"
	case DSC:
		return "NavP DSC"
	case Pipelined:
		return "NavP pipelined"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// Config describes one relaxation run.
type Config struct {
	// Rows, Cols are the grid dimensions including the fixed boundary;
	// Iters the number of Gauss-Seidel sweeps; P the number of PEs the
	// interior rows are block-distributed over. The interior row count
	// (Rows−2) must be a multiple of P.
	Rows, Cols, Iters, P int
	// Real selects the real-goroutine backend.
	Real bool
	// HW is the simulated hardware (ignored when Real).
	HW machine.Config
	// NavP holds the runtime cost parameters.
	NavP navp.Config
	// Tracer, if non-nil, receives trace events.
	Tracer trace.Tracer
	// Seed feeds the initial grid generator.
	Seed int64
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.Rows < 3 || c.Cols < 3 {
		return fmt.Errorf("stencil: grid %d×%d needs at least one interior point", c.Rows, c.Cols)
	}
	if c.Iters <= 0 {
		return fmt.Errorf("stencil: Iters=%d must be positive", c.Iters)
	}
	if c.P <= 0 {
		return fmt.Errorf("stencil: P=%d must be positive", c.P)
	}
	if (c.Rows-2)%c.P != 0 {
		return fmt.Errorf("stencil: interior rows %d must be a multiple of P=%d", c.Rows-2, c.P)
	}
	return nil
}

// Result reports one run.
type Result struct {
	Method Method
	// Seconds is the virtual finish time (sim backend only).
	Seconds float64
	// Grid is the relaxed grid.
	Grid *matrix.Dense
}

// InitialGrid returns the deterministic starting grid for cfg: random
// interior, fixed hot top boundary.
func InitialGrid(cfg Config) *matrix.Dense {
	g := matrix.RandomDense(matrix.NewSeeded(cfg.Seed), cfg.Rows, cfg.Cols)
	for j := 0; j < cfg.Cols; j++ {
		g.Set(0, j, 1.0) // hot top edge
		g.Set(cfg.Rows-1, j, 0)
	}
	for i := 0; i < cfg.Rows; i++ {
		g.Set(i, 0, 0)
		g.Set(i, cfg.Cols-1, 0)
	}
	return g
}

// Reference computes the relaxed grid with plain in-memory sweeps — the
// ground truth the distributed methods must match exactly.
func Reference(cfg Config) *matrix.Dense {
	g := InitialGrid(cfg)
	for t := 0; t < cfg.Iters; t++ {
		for i := 1; i < cfg.Rows-1; i++ {
			relaxRow(g.Row(i-1), g.Row(i), g.Row(i+1))
		}
	}
	return g
}

// relaxRow updates cur in place from its neighbours (interior columns
// only) — the Gauss-Seidel kernel shared by every implementation.
func relaxRow(above, cur, below []float64) {
	for j := 1; j < len(cur)-1; j++ {
		cur[j] = 0.25 * (above[j] + below[j] + cur[j-1] + cur[j+1])
	}
}

// rowFlops is the work of relaxing one row.
func rowFlops(cols int) float64 { return 4 * float64(cols-2) }

// Run executes the chosen method.
func Run(m Method, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pr := &runner{cfg: cfg, chunk: (cfg.Rows - 2) / cfg.P}
	pr.elem = cfg.HW.ElemBytes
	if pr.elem == 0 {
		pr.elem = 8
	}
	pes := cfg.P
	if m == Sequential {
		pes = 1
	}
	if cfg.Real {
		pr.sys = navp.NewReal(cfg.NavP, pes)
	} else {
		pr.sys = navp.NewSim(cfg.NavP, cfg.HW, pes)
	}
	if cfg.Tracer != nil {
		pr.sys.SetTracer(cfg.Tracer)
	}
	switch m {
	case Sequential:
		pr.sequential()
	case DSC:
		pr.distribute()
		pr.sweeps(false)
	case Pipelined:
		pr.distribute()
		pr.sweeps(true)
	default:
		return nil, fmt.Errorf("stencil: unknown method %d", int(m))
	}
	if err := pr.sys.Run(); err != nil {
		return nil, fmt.Errorf("stencil: %v: %w", m, err)
	}
	res := &Result{Method: m, Grid: pr.collect(m)}
	if !cfg.Real {
		res.Seconds = pr.sys.VirtualTime()
	}
	return res, nil
}

type runner struct {
	cfg   Config
	sys   *navp.System
	chunk int // interior rows per PE
	elem  int
}

// Node-variable keys.
func rowKey(i int) string { return "row:" + strconv.Itoa(i) }
func ghostKey() string    { return "ghost" }
func doneEv(t, p int) string {
	return "done:" + strconv.Itoa(t) + ":" + strconv.Itoa(p)
}
func ghostEv(t, p int) string {
	return "ghost:" + strconv.Itoa(t) + ":" + strconv.Itoa(p)
}

// rowBytes is the payload of one grid row.
func (r *runner) rowBytes() int64 { return int64(r.cfg.Cols) * int64(r.elem) }

// sequential runs the reference sweeps as a single-PE NavP program.
func (r *runner) sequential() {
	g := InitialGrid(r.cfg)
	r.sys.Node(0).Set("grid", g)
	r.sys.Inject(0, "Sweep", func(ag *navp.Agent) {
		for t := 0; t < r.cfg.Iters; t++ {
			for i := 1; i < r.cfg.Rows-1; i++ {
				i := i
				ag.Compute(rowFlops(r.cfg.Cols), func() {
					relaxRow(g.Row(i-1), g.Row(i), g.Row(i+1))
				})
			}
		}
	})
}

// distribute places the interior rows of chunk p (plus nothing else) on
// PE p as node variables, the bottom ghost row on each PE, and the fixed
// top/bottom boundary rows on the first and last PE.
func (r *runner) distribute() {
	g := InitialGrid(r.cfg)
	for p := 0; p < r.cfg.P; p++ {
		nd := r.sys.Node(p)
		for li := 0; li < r.chunk; li++ {
			gi := 1 + p*r.chunk + li
			row := append([]float64(nil), g.Row(gi)...)
			nd.Set(rowKey(gi), row)
		}
		// Ghost: a copy of the row just below this chunk (the next
		// chunk's first row, or the fixed bottom boundary).
		below := append([]float64(nil), g.Row(1+(p+1)*r.chunk)...)
		nd.Set(ghostKey(), below)
	}
	r.sys.Node(0).Set(rowKey(0), append([]float64(nil), g.Row(0)...))
}

// sweeps stages the DSC carrier (pipelined == false: one carrier doing
// all sweeps; true: one carrier per sweep, injected in order — the
// Pipelining Transformation applied across iterations).
func (r *runner) sweeps(pipelined bool) {
	r.sys.Inject(0, "injector", func(ag *navp.Agent) {
		if !pipelined {
			ag.Inject("SweepCarrier", func(sc *navp.Agent) {
				for t := 0; t < r.cfg.Iters; t++ {
					r.sweep(sc, t)
					if t < r.cfg.Iters-1 {
						sc.Delete("above")
						sc.Hop(0)
					}
				}
			})
			return
		}
		for t := 0; t < r.cfg.Iters; t++ {
			t := t
			ag.Inject(fmt.Sprintf("SweepCarrier(%d)", t), func(sc *navp.Agent) {
				r.sweep(sc, t)
			})
		}
	})
}

// sweep performs Gauss-Seidel iteration t across the distributed chunks:
// the body produced by the DSC Transformation. The carrier enters chunk
// p only after iteration t−1 has finished it and refreshed its ghost
// (node-local events), relaxes the chunk top-to-bottom using the carried
// "above" row, launches a GhostCarrier backward after updating the
// chunk's first row, and hops on carrying its last row.
func (r *runner) sweep(sc *navp.Agent, t int) {
	cols := r.cfg.Cols
	for p := 0; p < r.cfg.P; p++ {
		p := p
		sc.Hop(p)
		if t > 0 {
			sc.WaitEvent(doneEv(t-1, p))
			sc.WaitEvent(ghostEv(t-1, p))
		}
		nd := sc.Node()
		// The row above the chunk: carried from the previous chunk, or
		// the fixed top boundary on PE 0.
		var above []float64
		if p == 0 {
			above = navp.NodeVar[[]float64](nd, rowKey(0))
		} else {
			above = navp.AgentVar[[]float64](sc, "above")
		}
		first := 1 + p*r.chunk
		last := first + r.chunk - 1
		ghost := navp.NodeVar[[]float64](nd, ghostKey())

		for gi := first; gi <= last; gi++ {
			gi := gi
			cur := navp.NodeVar[[]float64](nd, rowKey(gi))
			var below []float64
			if gi == last {
				below = ghost
			} else {
				below = navp.NodeVar[[]float64](nd, rowKey(gi+1))
			}
			up := above
			if gi > first {
				up = navp.NodeVar[[]float64](nd, rowKey(gi-1))
			}
			sc.Compute(rowFlops(cols), func() { relaxRow(up, cur, below) })
			if gi == first && p > 0 {
				// The chunk's first row just took its iteration-t value;
				// ship it backward so chunk p−1's next sweep has a fresh
				// ghost. Injection is local; the GhostCarrier hops.
				snapshot := append([]float64(nil), cur...)
				sc.Inject(fmt.Sprintf("GhostCarrier(%d,%d)", t, p), func(gc *navp.Agent) {
					gc.Set("row", snapshot, r.rowBytes())
					gc.Hop(p - 1)
					copy(navp.NodeVar[[]float64](gc.Node(), ghostKey()), snapshot)
					gc.SignalEvent(ghostEv(t, p-1))
				})
			}
		}
		sc.SignalEvent(doneEv(t, p))
		if p == r.cfg.P-1 {
			// The bottom boundary never changes; the last chunk's ghost
			// is always fresh.
			sc.SignalEvent(ghostEv(t, p))
		} else {
			lastRow := navp.NodeVar[[]float64](nd, rowKey(last))
			sc.Set("above", append([]float64(nil), lastRow...), r.rowBytes())
		}
	}
}

// collect reassembles the grid from the node variables.
func (r *runner) collect(m Method) *matrix.Dense {
	if m == Sequential {
		return navp.NodeVar[*matrix.Dense](r.sys.Node(0), "grid")
	}
	g := InitialGrid(r.cfg) // boundaries; interior overwritten below
	for p := 0; p < r.cfg.P; p++ {
		nd := r.sys.Node(p)
		for li := 0; li < r.chunk; li++ {
			gi := 1 + p*r.chunk + li
			copy(g.Row(gi), navp.NodeVar[[]float64](nd, rowKey(gi)))
		}
	}
	return g
}
