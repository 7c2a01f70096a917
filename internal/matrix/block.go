package matrix

import (
	"fmt"
	"math/rand"
)

// Block is one algorithmic block of a partitioned matrix: the unit of
// data a migrating carrier ships and a dgemm kernel consumes (paper
// §3.6). A Block with nil Data is a phantom: it has full logical shape
// and size (so message costs and schedules are exact) but carries no
// elements and skips arithmetic. Phantom blocks let the harness replay
// the paper's N=6144+ experiments in virtual time without doing hundreds
// of Gflop of real math.
type Block struct {
	// BR, BC are the block's coordinates in the blocked matrix it was
	// partitioned from.
	BR, BC int
	// Rows, Cols are the block's logical element dimensions.
	Rows, Cols int
	// Data holds the elements row-major, or is nil for a phantom block.
	Data []float64
}

// NewBlock returns a zeroed block with the given coordinates and shape.
func NewBlock(br, bc, rows, cols int) *Block {
	return &Block{BR: br, BC: bc, Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewPhantomBlock returns a shape-only block.
func NewPhantomBlock(br, bc, rows, cols int) *Block {
	return &Block{BR: br, BC: bc, Rows: rows, Cols: cols}
}

// Phantom reports whether the block carries no data.
func (b *Block) Phantom() bool { return b.Data == nil }

// Bytes returns the logical payload size of the block for the given
// element width, which is what a hop or message transfer is charged,
// whether or not the block is phantom.
func (b *Block) Bytes(elemBytes int) int64 {
	return int64(b.Rows) * int64(b.Cols) * int64(elemBytes)
}

// Flops returns the floating-point work of one multiply-accumulate of
// this block against a compatible partner (2·m·n·k).
func (b *Block) Flops(partnerCols int) float64 {
	return 2 * float64(b.Rows) * float64(b.Cols) * float64(partnerCols)
}

// At returns element (i, j) of a non-phantom block.
func (b *Block) At(i, j int) float64 { return b.Data[i*b.Cols+j] }

// Set assigns element (i, j) of a non-phantom block.
func (b *Block) Set(i, j int, v float64) { b.Data[i*b.Cols+j] = v }

// Clone returns a deep copy (phantoms clone to phantoms).
func (b *Block) Clone() *Block {
	c := &Block{BR: b.BR, BC: b.BC, Rows: b.Rows, Cols: b.Cols}
	if b.Data != nil {
		c.Data = append([]float64(nil), b.Data...)
	}
	return c
}

// MulAdd computes c += a×b on blocks. Shapes must conform. If any operand
// is phantom the arithmetic is skipped (the caller still charges model
// time); mixing phantom and real operands is a programming error and
// panics, since it would silently corrupt a real result.
func MulAdd(c, a, b *Block) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulAdd shape mismatch: c %d×%d, a %d×%d, b %d×%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	np := 0
	if a.Phantom() {
		np++
	}
	if b.Phantom() {
		np++
	}
	if c.Phantom() {
		np++
	}
	if np == 3 {
		return
	}
	if np != 0 {
		panic("matrix: MulAdd mixes phantom and real blocks")
	}
	// The kernel has no data-dependent branch, so block timing is
	// uniform across inputs — a requirement of the §5 stagger
	// comparisons, where a mispredicted per-element skip would make
	// phase times depend on matrix content.
	Kernel{}.gemm(a.Rows, b.Cols, a.Cols, a.Data, a.Cols, b.Data, b.Cols, c.Data, c.Cols)
}

// Blocked is a square matrix partitioned into a grid of algorithmic
// blocks. NB is the block-grid order; blocks on the bottom/right edges
// may be smaller when the matrix order is not a multiple of the block
// size.
type Blocked struct {
	// N is the matrix order, BS the nominal block size, NB the block-grid
	// order (ceil(N/BS)).
	N, BS, NB int
	blocks    []*Block // NB×NB, row-major
}

// NewBlocked returns an order-n blocked matrix of zeroed (or phantom)
// blocks with block size bs. All its blocks live in one []Block and
// their elements in one slab, each block's Data capped at its own
// length, so a matrix costs four allocations however many blocks it
// has.
func NewBlocked(n, bs int, phantom bool) *Blocked {
	if n <= 0 || bs <= 0 {
		panic(fmt.Sprintf("matrix: invalid blocked dimensions n=%d bs=%d", n, bs))
	}
	nb := (n + bs - 1) / bs
	bm := &Blocked{N: n, BS: bs, NB: nb, blocks: make([]*Block, nb*nb)}
	store := make([]Block, nb*nb)
	var slab []float64
	if !phantom {
		slab = make([]float64, n*n)
	}
	off := 0
	for br := 0; br < nb; br++ {
		rows := min(bs, n-br*bs)
		for bc := 0; bc < nb; bc++ {
			cols := min(bs, n-bc*bs)
			blk := &store[br*nb+bc]
			*blk = Block{BR: br, BC: bc, Rows: rows, Cols: cols}
			if !phantom {
				blk.Data = slab[off : off+rows*cols : off+rows*cols]
				off += rows * cols
			}
			bm.blocks[br*nb+bc] = blk
		}
	}
	return bm
}

// RandomBlockedPair returns two order-n blocked matrices with block size
// bs whose elements are drawn from rng in exactly RandomPair's order —
// all of A row by row, then all of B — straight into the blocks, so the
// pair equals RandomPair's partitioned with no dense copy made.
func RandomBlockedPair(rng *rand.Rand, n, bs int) (a, b *Blocked) {
	a, b = NewBlocked(n, bs, false), NewBlocked(n, bs, false)
	a.fillRandom(rng)
	b.fillRandom(rng)
	return a, b
}

// fillRandom fills the matrix row by row with uniform values in [-1, 1)
// from rng, as Dense.FillRandom fills a dense one.
func (bm *Blocked) fillRandom(rng *rand.Rand) {
	for i := 0; i < bm.N; i++ {
		br, r := i/bm.BS, i%bm.BS
		for bc := 0; bc < bm.NB; bc++ {
			blk := bm.Block(br, bc)
			row := blk.Data[r*blk.Cols : (r+1)*blk.Cols]
			for j := range row {
				row[j] = 2*rng.Float64() - 1
			}
		}
	}
}

// Block returns the block at block-grid coordinates (br, bc).
func (bm *Blocked) Block(br, bc int) *Block { return bm.blocks[br*bm.NB+bc] }

// SetBlock replaces the block at (br, bc). The replacement must have the
// same shape as the original.
func (bm *Blocked) SetBlock(br, bc int, b *Block) {
	old := bm.Block(br, bc)
	if b.Rows != old.Rows || b.Cols != old.Cols {
		panic(fmt.Sprintf("matrix: SetBlock shape mismatch at (%d,%d): %d×%d vs %d×%d",
			br, bc, b.Rows, b.Cols, old.Rows, old.Cols))
	}
	bm.blocks[br*bm.NB+bc] = b
}

// Assemble copies the blocks back into a dense matrix. It panics on a
// phantom matrix.
func (bm *Blocked) Assemble() *Dense { return Assemble(bm.N, bm.BS, bm.Block) }

// Assemble copies the blocks of an order-n matrix with block size bs
// into a dense matrix, asking block for each grid position: callers
// whose blocks live elsewhere need no Blocked to hold them. It panics
// on a phantom block or one whose shape does not fit its position.
func Assemble(n, bs int, block func(br, bc int) *Block) *Dense {
	d := NewDense(n, n)
	for r0 := 0; r0 < n; r0 += bs {
		for c0 := 0; c0 < n; c0 += bs {
			blk := block(r0/bs, c0/bs)
			if blk.Phantom() {
				panic("matrix: Assemble on a phantom block")
			}
			if blk.Rows != min(bs, n-r0) || blk.Cols != min(bs, n-c0) {
				panic(fmt.Sprintf("matrix: Assemble shape mismatch at (%d,%d): %d×%d",
					r0/bs, c0/bs, blk.Rows, blk.Cols))
			}
			for i := 0; i < blk.Rows; i++ {
				copy(d.Data[(r0+i)*d.Stride+c0:][:blk.Cols], blk.Data[i*blk.Cols:][:blk.Cols])
			}
		}
	}
	return d
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
