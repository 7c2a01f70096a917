package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randDense(rng *rand.Rand, r, c int) *Dense {
	d := NewDense(r, c)
	d.FillRandom(rng)
	return d
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randDense(rng, 7, 7)
	id := NewDense(7, 7)
	for i := 0; i < 7; i++ {
		id.Set(i, i, 1)
	}
	if !Mul(a, id).EqualApprox(a, 1e-12) || !Mul(id, a).EqualApprox(a, 1e-12) {
		t.Fatal("identity multiplication failed")
	}
}

func TestMulKnownValues(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(3, 2)
	copy(a.Data, []float64{1, 2, 3, 4, 5, 6})
	copy(b.Data, []float64{7, 8, 9, 10, 11, 12})
	c := Mul(a, b)
	want := []float64{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	Mul(NewDense(2, 3), NewDense(2, 3))
}

func TestMulLinearityProperty(t *testing.T) {
	// Property: A(B + C) == AB + AC within floating tolerance.
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + int(r.Int31n(8))
		a, b, c := randDense(r, n, n), randDense(r, n, n), randDense(r, n, n)
		bc := NewDense(n, n)
		for i := range bc.Data {
			bc.Data[i] = b.Data[i] + c.Data[i]
		}
		left := Mul(a, bc)
		ab, ac := Mul(a, b), Mul(a, c)
		for i := range ab.Data {
			ab.Data[i] += ac.Data[i]
		}
		return left.EqualApprox(ab, 1e-9)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// partition copies square matrix d into a blocked form with block size
// bs.
func partition(d *Dense, bs int) *Blocked {
	bm := NewBlocked(d.Rows, bs, false)
	for br := 0; br < bm.NB; br++ {
		for bc := 0; bc < bm.NB; bc++ {
			blk := bm.Block(br, bc)
			for i := 0; i < blk.Rows; i++ {
				copy(blk.Data[i*blk.Cols:][:blk.Cols], d.Row(br*bs + i)[bc*bs:])
			}
		}
	}
	return bm
}

// TestRandomBlockedPairMatchesPartition: drawing the inputs straight
// into blocks gives, bit for bit, RandomPair's matrices partitioned, on
// exact grids, with edge blocks, and at an order below two blocks; and
// every block's Data is capped at its own length, so an append to one
// block cannot run into its neighbour in the shared slab.
func TestRandomBlockedPairMatchesPartition(t *testing.T) {
	for _, c := range []struct{ n, bs int }{{64, 16}, {100, 16}, {7, 3}} {
		a, b := RandomBlockedPair(NewSeeded(21), c.n, c.bs)
		da, db := RandomPair(NewSeeded(21), c.n)
		for _, m := range []struct {
			name      string
			got, want *Blocked
		}{{"A", a, partition(da, c.bs)}, {"B", b, partition(db, c.bs)}} {
			for br := 0; br < m.want.NB; br++ {
				for bc := 0; bc < m.want.NB; bc++ {
					g, w := m.got.Block(br, bc), m.want.Block(br, bc)
					if g.BR != br || g.BC != bc || g.Rows != w.Rows || g.Cols != w.Cols {
						t.Fatalf("n=%d bs=%d %s(%d,%d): block (%d,%d) %d×%d, want %d×%d",
							c.n, c.bs, m.name, br, bc, g.BR, g.BC, g.Rows, g.Cols, w.Rows, w.Cols)
					}
					if cap(g.Data) != len(g.Data) {
						t.Fatalf("n=%d bs=%d %s(%d,%d): cap %d, len %d", c.n, c.bs, m.name, br, bc, cap(g.Data), len(g.Data))
					}
					for i := range w.Data {
						if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
							t.Fatalf("n=%d bs=%d %s(%d,%d)[%d] = %v, want %v", c.n, c.bs, m.name, br, bc, i, g.Data[i], w.Data[i])
						}
					}
				}
			}
		}
	}
}

func TestPartitionAssembleRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + int(r.Int31n(20))
		bs := 1 + int(r.Int31n(7))
		d := randDense(r, n, n)
		return partition(d, bs).Assemble().EqualApprox(d, 0)
	}
	_ = rng
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionEdgeBlocks(t *testing.T) {
	d := NewDense(10, 10)
	d.FillSequential()
	bm := partition(d, 4) // 4,4,2 split
	if bm.NB != 3 {
		t.Fatalf("NB = %d, want 3", bm.NB)
	}
	if b := bm.Block(2, 2); b.Rows != 2 || b.Cols != 2 {
		t.Fatalf("edge block %d×%d, want 2×2", b.Rows, b.Cols)
	}
	if b := bm.Block(0, 2); b.Rows != 4 || b.Cols != 2 {
		t.Fatalf("edge block %d×%d, want 4×2", b.Rows, b.Cols)
	}
	if got := bm.Block(1, 1).At(0, 0); got != d.At(4, 4) {
		t.Fatalf("block content wrong: %v vs %v", got, d.At(4, 4))
	}
	// Blocks held outside a Blocked (as matmul gathers C) assemble to
	// the same matrix, edge blocks included.
	if got := Assemble(10, 4, func(br, bc int) *Block { return bm.Block(br, bc).Clone() }); !got.EqualApprox(d, 0) {
		t.Fatal("Assemble from cloned edge blocks differs from the source")
	}
}

func TestBlockMulAddMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, bs := 12, 4
	a, b := randDense(rng, n, n), randDense(rng, n, n)
	ba, bb := partition(a, bs), partition(b, bs)
	bc := NewBlocked(n, bs, false)
	for i := 0; i < ba.NB; i++ {
		for j := 0; j < ba.NB; j++ {
			for k := 0; k < ba.NB; k++ {
				MulAdd(bc.Block(i, j), ba.Block(i, k), bb.Block(k, j))
			}
		}
	}
	if !bc.Assemble().EqualApprox(Mul(a, b), 1e-9) {
		t.Fatal("block multiply differs from dense multiply")
	}
}

func TestPhantomBlocksSkipArithmetic(t *testing.T) {
	a := NewPhantomBlock(0, 0, 4, 4)
	b := NewPhantomBlock(0, 0, 4, 4)
	c := NewPhantomBlock(0, 0, 4, 4)
	MulAdd(c, a, b) // must not panic or allocate data
	if !c.Phantom() {
		t.Fatal("phantom result materialized")
	}
	if c.Bytes(4) != 64 {
		t.Fatalf("phantom Bytes = %d, want 64", c.Bytes(4))
	}
}

func TestMixedPhantomRealPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mixed phantom/real MulAdd")
		}
	}()
	MulAdd(NewBlock(0, 0, 2, 2), NewPhantomBlock(0, 0, 2, 2), NewBlock(0, 0, 2, 2))
}

func TestBlockCloneIndependence(t *testing.T) {
	b := NewBlock(1, 2, 2, 2)
	b.Set(0, 0, 5)
	c := b.Clone()
	c.Set(0, 0, 9)
	if b.At(0, 0) != 5 {
		t.Fatal("clone shares storage")
	}
	if p := NewPhantomBlock(0, 0, 2, 2).Clone(); !p.Phantom() {
		t.Fatal("phantom clone materialized")
	}
}

func TestBlockFlopsAndBytes(t *testing.T) {
	b := NewBlock(0, 0, 3, 4)
	if b.Flops(5) != 2*3*4*5 {
		t.Fatalf("Flops = %v", b.Flops(5))
	}
	if b.Bytes(8) != 3*4*8 {
		t.Fatalf("Bytes = %v", b.Bytes(8))
	}
}

func TestForwardStaggerShape(t *testing.T) {
	p := ForwardStagger(5, 2) // k -> k-2 mod 5
	want := []int{3, 4, 0, 1, 2}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("p = %v, want %v", p, want)
		}
	}
}

func TestReverseStaggerIsInvolution(t *testing.T) {
	f := func(n8, c8 uint8) bool {
		n := 1 + int(n8%32)
		c := int(c8) % n
		p := ReverseStagger(n, c)
		if !IsPermutation(p) {
			return false
		}
		for k := 0; k < n; k++ {
			if p[p[k]] != k {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCommPhasesReverseAtMostTwo(t *testing.T) {
	for n := 1; n <= 24; n++ {
		for c := 0; c < n; c++ {
			if ph := CommPhases(ReverseStagger(n, c)); ph > 2 {
				t.Fatalf("reverse stagger n=%d c=%d needs %d phases", n, c, ph)
			}
		}
	}
}

func TestCommPhasesForwardOftenThree(t *testing.T) {
	// Any cyclic shift with an odd cycle length needs 3 phases; e.g. a
	// shift by 1 over odd n is a single odd cycle.
	if ph := CommPhases(ForwardStagger(5, 1)); ph != 3 {
		t.Fatalf("forward n=5 s=1: %d phases, want 3", ph)
	}
	if ph := CommPhases(ForwardStagger(6, 1)); ph != 2 {
		t.Fatalf("forward n=6 s=1: %d phases, want 2 (even cycle)", ph)
	}
	if ph := CommPhases(ForwardStagger(6, 0)); ph != 0 {
		t.Fatalf("identity stagger: %d phases, want 0", ph)
	}
}

func TestSchedulePhasesValidAndComplete(t *testing.T) {
	f := func(n8 uint8, shift8 uint8, rev bool) bool {
		n := 2 + int(n8%24)
		s := int(shift8) % n
		var p []int
		if rev {
			p = ReverseStagger(n, s)
		} else {
			p = ForwardStagger(n, s)
		}
		phases := SchedulePhases(p)
		if len(phases) != CommPhases(p) {
			return false
		}
		moved := 0
		for _, ph := range phases {
			if !ValidPhase(ph) {
				return false
			}
			for _, tr := range ph {
				if p[tr.From] != tr.To {
					return false
				}
				moved++
			}
		}
		want := 0
		for k, v := range p {
			if k != v {
				want++
			}
		}
		return moved == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyColumnPermRealizesStagger(t *testing.T) {
	d := NewDense(6, 6)
	d.FillSequential()
	bm := partition(d, 2) // 3×3 blocks
	p := ForwardStagger(3, 1)
	bm.ApplyColumnPerm(1, p) // shift row 1 of blocks left by 1
	// Block originally at (1,1) should now be at column 0.
	if b := bm.Block(1, 0); b.BR != 1 || b.BC != 1 {
		t.Fatalf("block at (1,0) has origin (%d,%d), want (1,1)", b.BR, b.BC)
	}
}

func TestApplyRowPermRealizesStagger(t *testing.T) {
	d := NewDense(6, 6)
	d.FillSequential()
	bm := partition(d, 2)
	bm.ApplyRowPerm(2, ForwardStagger(3, 1))
	if b := bm.Block(0, 2); b.BR != 1 || b.BC != 2 {
		t.Fatalf("block at (0,2) has origin (%d,%d), want (1,2)", b.BR, b.BC)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	b.Set(1, 1, -3)
	if d := a.MaxAbsDiff(b); d != 3 {
		t.Fatalf("MaxAbsDiff = %v", d)
	}
}

func TestCloneAndRowViews(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randDense(rng, 3, 4)
	c := a.Clone()
	c.Set(0, 0, 99)
	if a.At(0, 0) == 99 {
		t.Fatal("Clone shares storage")
	}
	row := a.Row(2)
	row[0] = 42
	if a.At(2, 0) != 42 {
		t.Fatal("Row is not a view")
	}
}
