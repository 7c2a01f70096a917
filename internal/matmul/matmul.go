// Package matmul implements the paper's case study (§3): six incremental
// parallelizations of matrix multiplication obtained by mechanically
// applying the NavP transformations — DSC, Pipelining, and Phase shifting
// — first along one dimension of the PE network, then along the second.
//
// Each stage is a direct transcription of the paper's pseudocode:
//
//	Sequential  — Figure 2, the starting point
//	DSC1D       — Figure 5, one migrating thread chasing distributed data
//	Pipeline1D  — Figure 7, one RowCarrier per block row, staggered
//	Phase1D     — Figure 9, carriers enter the pipeline at distinct PEs
//	DSC2D       — Figure 11, DSC applied again in the second dimension
//	Pipeline2D  — Figure 13, per-block ACarriers/BCarriers in pipelines
//	Phase2D     — Figure 15, full DPC in both dimensions (the stage that
//	              resembles Gentleman's Algorithm)
//
// The paper presents the algorithms at fine granularity (N == P) and
// notes that the coarse version substitutes a sub-matrix block for each
// element (§3, §3.6). This package does exactly that: the algorithms run
// on a virtual NB×NB grid of algorithmic blocks (NB = N/BS), mapped onto
// the physical PEs in contiguous chunks. Hops between virtual nodes on
// the same PE are free, as in MESSENGERS.
package matmul

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/navp"
	"repro/internal/trace"
)

// Stage identifies one step of the incremental parallelization.
type Stage int

// The stages in the order the transformations produce them.
const (
	Sequential Stage = iota
	DSC1D
	Pipeline1D
	Phase1D
	DSC2D
	Pipeline2D
	Phase2D
)

// Stages lists all stages in transformation order.
var Stages = []Stage{Sequential, DSC1D, Pipeline1D, Phase1D, DSC2D, Pipeline2D, Phase2D}

// String returns the stage name as used in the paper's tables.
func (s Stage) String() string {
	switch s {
	case Sequential:
		return "Sequential"
	case DSC1D:
		return "NavP 1D DSC"
	case Pipeline1D:
		return "NavP 1D pipeline"
	case Phase1D:
		return "NavP 1D phase"
	case DSC2D:
		return "NavP 2D DSC"
	case Pipeline2D:
		return "NavP 2D pipeline"
	case Phase2D:
		return "NavP 2D phase"
	}
	return fmt.Sprintf("Stage(%d)", int(s))
}

// TwoDimensional reports whether the stage runs on a P×P grid (as opposed
// to P PEs in a row).
func (s Stage) TwoDimensional() bool { return s >= DSC2D }

// Config describes one matrix-multiplication run.
type Config struct {
	// N is the matrix order; BS the algorithmic block size. N must be a
	// multiple of BS, and N/BS a multiple of P.
	N, BS int
	// P is the PE count per network dimension: P machines for the 1-D
	// stages, a P×P grid for the 2-D stages, 1 for Sequential.
	P int
	// Phantom selects shape-only blocks: message sizes, schedules, and
	// charged flops are exact but no arithmetic is performed. Used to
	// regenerate the paper's tables at full problem sizes.
	Phantom bool
	// Paged routes the Sequential stage's block accesses through the PE's
	// LRU pager, reproducing the virtual-memory thrashing of the paper's
	// out-of-core runs (Table 2, large-N rows of Table 1). Only
	// meaningful on the sim backend.
	Paged bool
	// Real selects the real-goroutine backend instead of the simulator.
	// Timings then reflect the host machine, not the paper's testbed.
	Real bool
	// HW is the simulated hardware (ignored when Real).
	HW machine.Config
	// NavP holds the MESSENGERS daemon cost parameters (ignored when Real).
	NavP navp.Config
	// Tracer, if non-nil, receives hop/compute/wait events.
	Tracer trace.Tracer
	// Metrics, if non-nil, receives the NavP-layer and sim-kernel
	// counters (hops, injects, event waits, dispatches, time horizon).
	Metrics *metrics.Registry
	// TuneCluster, if non-nil, adjusts the simulated hardware after
	// construction (e.g. machine.Cluster.SetCPURate for heterogeneous
	// experiments). Ignored on the real backend.
	TuneCluster func(*machine.Cluster)
	// Fault injects a seeded chaos plan into the simulated hops: dropped
	// frames charge a resend timeout, duplicates extra dispatch overhead,
	// kills a daemon blackout window. Sim backend only; the wire runtime
	// takes its plan through wire.Options instead.
	Fault *fault.Plan
	// Seed feeds the input generator for non-phantom runs.
	Seed int64
}

// Validate reports whether the configuration is runnable for the stage.
func (c Config) Validate(stage Stage) error {
	if c.N <= 0 || c.BS <= 0 || c.P <= 0 {
		return fmt.Errorf("matmul: N=%d BS=%d P=%d must be positive", c.N, c.BS, c.P)
	}
	if c.N%c.BS != 0 {
		return fmt.Errorf("matmul: N=%d must be a multiple of BS=%d", c.N, c.BS)
	}
	nb := c.N / c.BS
	if stage != Sequential && nb%c.P != 0 {
		return fmt.Errorf("matmul: block grid order %d must be a multiple of P=%d", nb, c.P)
	}
	if c.Phantom && c.Real {
		return fmt.Errorf("matmul: phantom blocks have no real-backend value")
	}
	if c.Paged && (stage != Sequential || c.Real) {
		return fmt.Errorf("matmul: Paged applies only to Sequential on the sim backend")
	}
	if c.Fault.Active() {
		if c.Real {
			return fmt.Errorf("matmul: Fault applies only to the sim backend (use wire.Options for real daemons)")
		}
		pes := c.P
		switch {
		case stage == Sequential:
			pes = 1
		case stage.TwoDimensional():
			pes = c.P * c.P
		}
		for _, k := range c.Fault.Kills {
			if k.Node < 0 || k.Node >= pes {
				return fmt.Errorf("matmul: fault plan kills node %d but %v runs on %d PEs", k.Node, stage, pes)
			}
		}
	}
	return nil
}

// Result reports one run.
type Result struct {
	Stage Stage
	// Seconds is the virtual finish time on the sim backend, or wall time
	// on the real backend.
	Seconds float64
	// C is the assembled product, nil for phantom runs.
	C *matrix.Dense
	// PEs is the physical PE count used (P or P·P).
	PEs int
}

// Run executes one stage and returns its result.
func Run(stage Stage, cfg Config) (*Result, error) {
	if err := cfg.Validate(stage); err != nil {
		return nil, err
	}
	return newProblem(stage, cfg).run()
}

// run stages the problem's program, runs it and gathers the product.
func (pr *problem) run() (*Result, error) {
	cfg, stage := pr.cfg, pr.stage
	switch stage {
	case Sequential:
		pr.sequential()
	case DSC1D:
		pr.dsc1D()
	case Pipeline1D:
		pr.pipeline1D()
	case Phase1D:
		pr.phase1D()
	case DSC2D:
		pr.dsc2D()
	case Pipeline2D:
		pr.pipeline2D()
	case Phase2D:
		pr.phase2D()
	default:
		return nil, fmt.Errorf("matmul: unknown stage %d", int(stage))
	}
	if err := pr.sys.Run(); err != nil {
		return nil, fmt.Errorf("matmul: %v on %d PEs: %w", stage, pr.pes, err)
	}
	res := &Result{Stage: stage, PEs: pr.pes}
	if cfg.Real {
		res.Seconds = float64(0) // real backend timing is the caller's testing.B concern
	} else {
		res.Seconds = pr.sys.VirtualTime()
	}
	if !cfg.Phantom {
		res.C = pr.gatherC()
	}
	return res, nil
}

// problem holds one run's state: the NavP system, the blocked inputs, and
// the virtual-grid geometry.
type problem struct {
	cfg   Config
	stage Stage
	sys   *navp.System
	pes   int
	// NB is the virtual grid order (N/BS); vpp the virtual nodes per PE
	// along one dimension (NB/P).
	NB, vpp int
	A, B    *matrix.Blocked
	// C holds the product's blocks, zeroed: each stage places C(i,j) in
	// node variable "C:i:j" of the cell's owner.
	C    *matrix.Blocked
	elem int

	// name holds the handles of the node variables, agent variables
	// and events, minted once per problem: newProblem mints C and the
	// carried rows and blocks, each stage the other tables it uses.
	name struct {
		c, b           navp.Table[navp.Var]   // "C:i:j", "B:k:j"
		aRow, bColHome navp.Table[navp.Var]   // "Arow:i", "BcolHome:j"
		bCol           navp.Table[navp.Var]   // "Bcol:i:j" (2-D DSC)
		aHome, bHome   navp.Table[navp.Var]   // "Ahome:i:j", "Bhome:i:j" (2-D phase)
		mA, mB         navp.Var               // the carried A row or block, B column or block
		ep             navp.Table[navp.Event] // "EP:i:j" (2-D DSC)
		ec, ep3        navp.Table[navp.Event] // "EC:i:j", "EP:i:j:k" (per-block 2-D stages)
	}
	// deposit holds, for each cell (i,j) of the per-block 2-D stages, the
	// B block deposited for A(i,k) at index k. Cell (i,j)'s slots belong
	// to its node: only agents there touch them.
	deposit [][]*matrix.Block
	// onRead, when set (by tests), sees every node-variable read the
	// program makes through nodeVar, by the variable's name.
	onRead func(node int, name string)
}

func newProblem(stage Stage, cfg Config) *problem {
	pr := &problem{cfg: cfg, stage: stage, NB: cfg.N / cfg.BS}
	pr.elem = cfg.HW.ElemBytes
	if pr.elem == 0 {
		pr.elem = 8
	}
	switch {
	case stage == Sequential:
		pr.pes = 1
		pr.vpp = pr.NB
	case stage.TwoDimensional():
		pr.pes = cfg.P * cfg.P
		pr.vpp = pr.NB / cfg.P
	default:
		pr.pes = cfg.P
		pr.vpp = pr.NB / cfg.P
	}
	if cfg.Real {
		pr.sys = navp.NewReal(cfg.NavP, pr.pes)
	} else {
		pr.sys = navp.NewSim(cfg.NavP, cfg.HW, pr.pes)
	}
	pr.name.c = pr.sys.Vars("C", pr.NB, pr.NB)
	pr.name.mA, pr.name.mB = pr.sys.Var("mA"), pr.sys.Var("mB")
	if cfg.Tracer != nil {
		pr.sys.SetTracer(cfg.Tracer)
	}
	if cfg.Metrics != nil {
		pr.sys.SetMetrics(cfg.Metrics)
	}
	if cfg.TuneCluster != nil && !cfg.Real {
		cfg.TuneCluster(pr.sys.Cluster())
	}
	if cfg.Fault.Active() && !cfg.Real {
		pr.sys.SetFaultPlan(cfg.Fault)
	}
	pr.A, pr.B, pr.C = blockedInputs(cfg)
	return pr
}

// blockedInputs returns the blocked inputs A and B of cfg, drawn from
// its seed straight into their blocks (phantom for phantom runs), and a
// zeroed C of the same shape.
func blockedInputs(cfg Config) (a, b, c *matrix.Blocked) {
	if cfg.Phantom {
		return matrix.NewBlocked(cfg.N, cfg.BS, true), matrix.NewBlocked(cfg.N, cfg.BS, true),
			matrix.NewBlocked(cfg.N, cfg.BS, true)
	}
	a, b = matrix.RandomBlockedPair(matrix.NewSeeded(cfg.Seed), cfg.N, cfg.BS)
	return a, b, matrix.NewBlocked(cfg.N, cfg.BS, false)
}

// Inputs returns dense copies of the generated inputs for verification:
// the matrices the blocked inputs of every run of cfg hold. It panics on
// phantom runs.
func Inputs(cfg Config) (a, b *matrix.Dense) {
	return matrix.RandomPair(matrix.NewSeeded(cfg.Seed), cfg.N)
}

// owner maps a virtual index to its PE chunk along one dimension.
func (pr *problem) owner(v int) int { return v / pr.vpp }

// pe1D returns the physical node of virtual column v in the 1-D network.
func (pr *problem) pe1D(v int) int { return pr.owner(v) }

// pe2D returns the physical node of virtual cell (vi, vj) on the P×P grid.
func (pr *problem) pe2D(vi, vj int) int { return pr.owner(vi)*pr.cfg.P + pr.owner(vj) }

// nodeVar reads node variable v of nd as a T (navp.NodeVar),
// reporting the read to pr.onRead when one is set.
func nodeVar[T any](pr *problem, nd *navp.Node, v navp.Var) T {
	if pr.onRead != nil {
		pr.onRead(nd.ID(), pr.sys.VarName(v))
	}
	return navp.NodeVar[T](nd, v)
}

// aRow materializes block row i of A as a slice of blocks.
func (pr *problem) aRow(i int) []*matrix.Block {
	row := make([]*matrix.Block, pr.NB)
	for k := 0; k < pr.NB; k++ {
		row[k] = pr.A.Block(i, k)
	}
	return row
}

// bCol materializes block column j of B.
func (pr *problem) bCol(j int) []*matrix.Block {
	col := make([]*matrix.Block, pr.NB)
	for k := 0; k < pr.NB; k++ {
		col[k] = pr.B.Block(k, j)
	}
	return col
}

// blocksBytes returns the payload size of a slice of blocks.
func (pr *problem) blocksBytes(blocks []*matrix.Block) int64 {
	var total int64
	for _, b := range blocks {
		total += b.Bytes(pr.elem)
	}
	return total
}

// blockFlops is the work of one BS×BS block multiply-accumulate.
func (pr *problem) blockFlops() float64 {
	bs := float64(pr.cfg.BS)
	return 2 * bs * bs * bs
}

// visitFlops is the work of one virtual-node visit of a 1-D RowCarrier or
// a 2-D (whole-column) DSC RowCarrier: one C block updated against a full
// block row/column pair, NB block multiplies.
func (pr *problem) visitFlops() float64 {
	return pr.blockFlops() * float64(pr.NB)
}

// gatherC copies the C blocks from the node variables they ended on
// straight into the product. Every stage stores C(i,j) as "C:i:j" on the
// virtual cell's owner node (node 0 for Sequential; the 1-D column owner;
// the 2-D grid cell owner).
func (pr *problem) gatherC() *matrix.Dense {
	return matrix.Assemble(pr.cfg.N, pr.cfg.BS, func(i, j int) *matrix.Block {
		return navp.NodeVar[*matrix.Block](pr.sys.Node(pr.cNode(i, j)), pr.name.c.At2(i, j))
	})
}

// cNode returns the physical node holding C(i,j) for the current stage.
func (pr *problem) cNode(i, j int) int {
	switch {
	case pr.stage == Sequential:
		return 0
	case pr.stage.TwoDimensional():
		return pr.pe2D(i, j)
	default:
		return pr.pe1D(j)
	}
}
