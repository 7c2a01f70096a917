// Package gentleman implements the paper's message-passing baseline (§4):
// Gentleman's Algorithm for parallel matrix multiplication on a P×P
// process grid, as an SPMD program over the MPI-like internal/mp library.
//
// The transcription follows Figure 16 plus the implementation notes of
// §4 and §5:
//
//   - block partitioning: each rank owns an (N/P)×(N/P) distribution
//     block of A, B, and C, itself decomposed into algorithmic blocks
//     that are communicated and multiplied individually;
//   - initial staggering done in a single step over the fully connected
//     switch (direct sends to the final destination) rather than i
//     repeated neighbor shifts — the Cannon variant below does it
//     stepwise for comparison;
//   - non-blocking receives (Irecv) paired with blocking sends to avoid
//     deadlock on the toroidal shift exchange;
//   - pointer swapping for blocks a rank shifts to itself, avoiding local
//     copies (disable with CopyLocal for the ablation benchmark);
//   - the "straightforward" structure the paper critiques: each shift
//     step receives all blocks, then computes all blocks — an artificial
//     sequential order with no communication/computation overlap. The
//     Overlap variant posts the next shift before computing, the fix the
//     paper says costs "significantly more programming work".
package gentleman

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/matrix"
	"repro/internal/mp"
)

// Variant selects the algorithm flavor.
type Variant int

const (
	// Gentleman is Figure 16 with single-step staggering.
	Gentleman Variant = iota
	// Cannon staggers stepwise (row i shifts west i times), as in
	// Cannon's original algorithm on a torus without a crossbar.
	Cannon
	// Overlap is Gentleman with communication/computation overlap: the
	// next shift's receives and sends are posted before computing the
	// current step. The paper's §5(1) discusses exactly this fix.
	Overlap
)

// String returns the variant name used in benchmark tables.
func (v Variant) String() string {
	switch v {
	case Gentleman:
		return "MPI (Gentleman)"
	case Cannon:
		return "MPI (Cannon)"
	case Overlap:
		return "MPI (overlap)"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Config describes one run.
type Config struct {
	// N is the matrix order, BS the algorithmic block size, P the process
	// grid order (P×P ranks). N must be a multiple of BS and N/BS a
	// multiple of P.
	N, BS, P int
	// Phantom selects shape-only blocks (model-scale runs).
	Phantom bool
	// Real selects the real-goroutine backend.
	Real bool
	// CopyLocal disables pointer swapping: blocks a rank shifts to itself
	// are copied through memory at CopyRate bytes/s, charged as CPU time.
	// This is the §4 ablation ("instead of sending an algorithmic block
	// to a PE itself, or copying ..., we use pointer swapping").
	CopyLocal bool
	// CopyRate is the local memory-copy bandwidth for CopyLocal runs.
	CopyRate float64
	// HW is the simulated hardware (ignored when Real).
	HW machine.Config
	// TuneCluster, if non-nil, adjusts the simulated hardware after
	// construction (heterogeneous experiments). Ignored when Real.
	TuneCluster func(*machine.Cluster)
	// Seed feeds the input generator.
	Seed int64
}

// Validate reports whether the configuration is runnable.
func (c Config) Validate() error {
	if c.N <= 0 || c.BS <= 0 || c.P <= 0 {
		return fmt.Errorf("gentleman: N=%d BS=%d P=%d must be positive", c.N, c.BS, c.P)
	}
	if c.N%c.BS != 0 {
		return fmt.Errorf("gentleman: N=%d must be a multiple of BS=%d", c.N, c.BS)
	}
	if (c.N/c.BS)%c.P != 0 {
		return fmt.Errorf("gentleman: block grid order %d must be a multiple of P=%d", c.N/c.BS, c.P)
	}
	if c.N/c.BS/c.P > 64 {
		return fmt.Errorf("gentleman: local block grid %d exceeds the 64×64 tag space", c.N/c.BS/c.P)
	}
	if c.Phantom && c.Real {
		return fmt.Errorf("gentleman: phantom blocks have no real-backend value")
	}
	if c.CopyLocal && c.CopyRate <= 0 {
		return fmt.Errorf("gentleman: CopyLocal requires a positive CopyRate")
	}
	return nil
}

// Result reports one run.
type Result struct {
	Variant Variant
	// Seconds is the virtual finish time (sim backend only).
	Seconds float64
	// C is the assembled product, nil for phantom runs.
	C *matrix.Dense
}

// Run executes the chosen variant and returns its result.
func Run(v Variant, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var world *mp.World
	if cfg.Real {
		world = mp.NewRealWorld(cfg.P * cfg.P)
	} else {
		world = mp.NewSimWorld(cfg.HW, cfg.P*cfg.P)
	}
	if cfg.TuneCluster != nil && !cfg.Real {
		cfg.TuneCluster(world.Cluster())
	}
	st := newState(v, cfg)
	if err := world.Run(st.program); err != nil {
		return nil, fmt.Errorf("gentleman: %v: %w", v, err)
	}
	res := &Result{Variant: v}
	if !cfg.Real {
		res.Seconds = world.VirtualTime()
	}
	if !cfg.Phantom {
		res.C = st.out.Assemble()
	}
	return res, nil
}

// state is shared setup across ranks: the partitioned inputs and the
// output collector. Ranks touch disjoint blocks, so no locking is needed.
type state struct {
	v    Variant
	cfg  Config
	cart mp.Cart2D
	// NB is the global block-grid order; db the local block-grid order
	// per rank (NB/P).
	NB, db int
	elem   int
	A, B   *matrix.Blocked
	out    *matrix.Blocked
}

func newState(v Variant, cfg Config) *state {
	st := &state{v: v, cfg: cfg, cart: mp.NewCart2D(cfg.P, cfg.P), NB: cfg.N / cfg.BS}
	st.db = st.NB / cfg.P
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

// Inputs returns the dense inputs generated for cfg (for verification).
func Inputs(cfg Config) (a, b *matrix.Dense) {
	return matrix.RandomPair(matrix.NewSeeded(cfg.Seed), cfg.N)
}

// local is one rank's working set: db×db algorithmic blocks of A, B, C.
type local struct {
	a, b, c [][]*matrix.Block
}

// program is the SPMD body executed by every rank.
func (st *state) program(r *mp.Rank) {
	row, col := st.cart.Coords(r.ID())
	l := st.loadLocal(row, col)

	// Initial staggering: A moves i steps west, B moves j steps north.
	switch st.v {
	case Cannon:
		for s := 0; s < row; s++ {
			st.shift(r, l.a, st.cart.West(r.ID()), st.cart.East(r.ID()), tagA(s))
		}
		for s := 0; s < col; s++ {
			st.shift(r, l.b, st.cart.North(r.ID()), st.cart.South(r.ID()), tagB(s))
		}
		// Ranks finish their staggering at different times; realign.
		r.Barrier()
	default:
		// Single-step staggering over the crossbar: A(row,col) goes
		// directly to (row, col-row); we receive from (row, col+row).
		st.stagger(r, l.a, st.cart.RankOf(row, col-row), st.cart.RankOf(row, col+row), tagA(0))
		st.stagger(r, l.b, st.cart.RankOf(row-col, col), st.cart.RankOf(row+col, col), tagB(0))
	}

	// C = A×B, then P−1 shift-and-accumulate steps.
	if st.v == Overlap {
		st.overlappedSteps(r, l)
	} else {
		st.multiplyAdd(r, l)
		for k := 0; k < st.cfg.P-1; k++ {
			st.shift(r, l.a, st.cart.West(r.ID()), st.cart.East(r.ID()), tagA(k+1))
			st.shift(r, l.b, st.cart.North(r.ID()), st.cart.South(r.ID()), tagB(k+1))
			st.multiplyAdd(r, l)
		}
	}

	st.storeLocal(row, col, l)
}

// Distinct tag spaces for A shifts and B shifts per step; blockTag makes
// the tag unique per algorithmic block so that concurrent non-blocking
// transfers cannot be matched out of order.
func tagA(step int) int { return 2 * step }
func tagB(step int) int { return 2*step + 1 }

// blockTag folds a block's local coordinates into the step tag. Local
// grids are capped at 64×64 blocks per rank by Validate.
func blockTag(base, bi, bj int) int { return base*4096 + bi*64 + bj }

// loadLocal copies this rank's distribution blocks out of the global
// partitioned inputs and zeroes its C.
func (st *state) loadLocal(row, col int) *local {
	l := &local{}
	l.a = st.sliceDist(st.A, row, col, true)
	l.b = st.sliceDist(st.B, row, col, true)
	l.c = make([][]*matrix.Block, st.db)
	for bi := 0; bi < st.db; bi++ {
		l.c[bi] = make([]*matrix.Block, st.db)
		for bj := 0; bj < st.db; bj++ {
			gi, gj := row*st.db+bi, col*st.db+bj
			ref := st.A.Block(gi, 0)
			if st.cfg.Phantom {
				l.c[bi][bj] = matrix.NewPhantomBlock(gi, gj, ref.Rows, ref.Rows)
			} else {
				l.c[bi][bj] = matrix.NewBlock(gi, gj, ref.Rows, ref.Rows)
			}
		}
	}
	return l
}

// sliceDist extracts the db×db algorithmic blocks of rank (row,col)'s
// distribution block, cloning when clone is set (ranks mutate their
// working copies as blocks shift through).
func (st *state) sliceDist(m *matrix.Blocked, row, col int, clone bool) [][]*matrix.Block {
	out := make([][]*matrix.Block, st.db)
	for bi := 0; bi < st.db; bi++ {
		out[bi] = make([]*matrix.Block, st.db)
		for bj := 0; bj < st.db; bj++ {
			blk := m.Block(row*st.db+bi, col*st.db+bj)
			if clone {
				blk = blk.Clone()
			}
			out[bi][bj] = blk
		}
	}
	return out
}

// storeLocal writes this rank's C distribution block into the shared
// output (disjoint per rank).
func (st *state) storeLocal(row, col int, l *local) {
	if st.cfg.Phantom {
		return
	}
	for bi := 0; bi < st.db; bi++ {
		for bj := 0; bj < st.db; bj++ {
			st.out.SetBlock(row*st.db+bi, col*st.db+bj, l.c[bi][bj])
		}
	}
}

// multiplyAdd performs C += A×B over the rank's local algorithmic blocks
// in the straightforward loop order the paper describes.
func (st *state) multiplyAdd(r *mp.Rank, l *local) {
	bs := float64(st.cfg.BS)
	flops := 2 * bs * bs * bs
	for bi := 0; bi < st.db; bi++ {
		for bj := 0; bj < st.db; bj++ {
			c := l.c[bi][bj]
			for k := 0; k < st.db; k++ {
				a, b := l.a[bi][k], l.b[k][bj]
				r.Compute(flops, func() { matrix.MulAdd(c, a, b) })
			}
		}
	}
}

// shift exchanges a whole distribution block with the toroidal neighbors:
// every algorithmic block is sent to rank to and replaced by one received
// from rank from. Self-shifts use pointer swapping (free) unless
// CopyLocal charges a memory copy.
func (st *state) shift(r *mp.Rank, blocks [][]*matrix.Block, to, from int, tag int) {
	if to == r.ID() {
		st.localPass(r, blocks)
		return
	}
	// Post all receives first (MPI_Irecv), then blocking-send all blocks,
	// then wait — the deadlock-free pattern of §4.
	reqs := make([][]*mp.Request, st.db)
	for bi := range blocks {
		reqs[bi] = make([]*mp.Request, st.db)
		for bj := range blocks[bi] {
			reqs[bi][bj] = r.Irecv(from, blockTag(tag, bi, bj))
		}
	}
	for bi := range blocks {
		for bj, blk := range blocks[bi] {
			r.Send(to, blockTag(tag, bi, bj), blk, blk.Bytes(st.elem))
		}
	}
	for bi := range blocks {
		for bj := range blocks[bi] {
			blocks[bi][bj] = st.receive(r, reqs[bi][bj])
		}
	}
}

// receive completes a posted block receive. With pointer swapping (the
// default, §4) the received block is adopted by reference; the CopyLocal
// ablation instead charges the memcpy out of the receive buffer that a
// swap-free implementation performs for every arriving block.
func (st *state) receive(r *mp.Rank, req *mp.Request) *matrix.Block {
	blk := r.Wait(req).(*matrix.Block)
	if st.cfg.CopyLocal {
		r.Compute(float64(blk.Bytes(st.elem))/st.cfg.CopyRate*st.cfg.HW.CPURate, nil)
	}
	return blk
}

// localPass handles a shift whose source and destination are this rank:
// pointer swapping makes it free; the CopyLocal ablation charges a
// straight memory copy of every block instead (the paper: "instead of
// sending an algorithmic block to a PE itself, or copying an algorithmic
// block from a local memory, we use pointer swapping").
func (st *state) localPass(r *mp.Rank, blocks [][]*matrix.Block) {
	if !st.cfg.CopyLocal {
		return // pointer swap: nothing moves
	}
	var bytes int64
	for bi := range blocks {
		for _, blk := range blocks[bi] {
			bytes += blk.Bytes(st.elem)
		}
	}
	// A memcpy is CPU-bound; charge it there. The copy itself is not
	// performed — the blocks are immutable inputs either way.
	r.Compute(float64(bytes)/st.cfg.CopyRate*st.cfg.HW.CPURate, nil)
}

// stagger performs the single-step initial skew: send every local block
// of m directly to rank to, receive replacements from rank from.
func (st *state) stagger(r *mp.Rank, blocks [][]*matrix.Block, to, from int, tag int) {
	st.shift(r, blocks, to, from, tag)
}

// overlappedSteps runs all P steps with communication/computation
// overlap: at each step the next shift's receives and sends are posted
// before the current step's computation, so the wait for arriving blocks
// is hidden behind the multiply. The blocks being sent are immutable, so
// computing with them while they are in flight is safe.
func (st *state) overlappedSteps(r *mp.Rank, l *local) {
	west, east := st.cart.West(r.ID()), st.cart.East(r.ID())
	north, south := st.cart.North(r.ID()), st.cart.South(r.ID())

	type pending struct {
		reqs   [][]*mp.Request
		sends  []*mp.Request
		blocks [][]*matrix.Block
	}
	post := func(blocks [][]*matrix.Block, to, from, tag int) *pending {
		if to == r.ID() {
			st.localPass(r, blocks)
			return nil
		}
		p := &pending{blocks: blocks, reqs: make([][]*mp.Request, st.db)}
		for bi := range blocks {
			p.reqs[bi] = make([]*mp.Request, st.db)
			for bj := range blocks[bi] {
				p.reqs[bi][bj] = r.Irecv(from, blockTag(tag, bi, bj))
			}
		}
		// Non-blocking sends: the transfers proceed while this rank
		// computes — the overlap MPI only grants when the programmer
		// restructures the code around Isend (the paper's point).
		for bi := range blocks {
			for bj, blk := range blocks[bi] {
				p.sends = append(p.sends, r.Isend(to, blockTag(tag, bi, bj), blk, blk.Bytes(st.elem)))
			}
		}
		return p
	}
	collect := func(p *pending) {
		if p == nil {
			return
		}
		for _, sreq := range p.sends {
			r.Wait(sreq)
		}
		for bi := range p.reqs {
			for bj := range p.reqs[bi] {
				p.blocks[bi][bj] = st.receive(r, p.reqs[bi][bj])
			}
		}
	}

	for k := 0; k < st.cfg.P-1; k++ {
		pa := post(l.a, west, east, tagA(k+1))
		pb := post(l.b, north, south, tagB(k+1))
		st.multiplyAdd(r, l) // step k, with the transfers in flight
		collect(pa)
		collect(pb)
	}
	st.multiplyAdd(r, l) // final step
}
