package matrix

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// equalOrBothNaN reports elementwise equality within tol, treating a
// NaN in one matrix as requiring a NaN in the other at the same
// position (EqualApprox would reject NaN outright).
func equalOrBothNaN(t *testing.T, got, want *Dense, tol float64) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape mismatch: got %d×%d, want %d×%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			g, w := got.At(i, j), want.At(i, j)
			if math.IsNaN(w) {
				if !math.IsNaN(g) {
					t.Fatalf("(%d,%d): got %v, want NaN", i, j, g)
				}
				continue
			}
			if math.IsInf(w, 0) {
				if g != w {
					t.Fatalf("(%d,%d): got %v, want %v", i, j, g, w)
				}
				continue
			}
			if math.Abs(g-w) > tol {
				t.Fatalf("(%d,%d): got %v, want %v (|Δ|=%g > %g)", i, j, g, w, math.Abs(g-w), tol)
			}
		}
	}
}

// kernelTol scales the comparison tolerance with the inner dimension:
// the kernel reassociates k-length dot products, so rounding differences
// grow with k.
func kernelTol(k int) float64 { return 1e-12 * float64(k+1) }

// TestKernelMatchesNaiveRagged sweeps shapes chosen to hit every edge
// of the blocking: 1×1, single row/column, shapes below the small-GEMM
// cutoff, non-multiples of the 4×4 micro-tile, and shapes larger than
// one mc/kc/nc panel (via shrunken test blocking parameters).
func TestKernelMatchesNaiveRagged(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shapes := [][3]int{ // {m, k, n}
		{1, 1, 1}, {1, 7, 1}, {1, 1, 9}, {7, 1, 1},
		{1, 33, 65}, {65, 33, 1},
		{2, 3, 5}, {4, 4, 4}, {5, 5, 5}, {8, 8, 8},
		{31, 33, 35}, {33, 31, 34}, {37, 64, 41},
		{64, 64, 64}, {65, 63, 66}, {100, 1, 100},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b := randDense(rng, m, k), randDense(rng, k, n)
		want := mulNaive(a, b)
		equalOrBothNaN(t, Kernel{}.Mul(a, b), want, kernelTol(k))
	}
}

// TestKernelPanelEdges forces multi-panel traversal in every blocking
// loop by shrinking the cache-blocking parameters far below the input
// size, including deliberately unaligned panel sizes.
func TestKernelPanelEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a, b := randDense(rng, 45, 38), randDense(rng, 38, 51)
	want := mulNaive(a, b)
	for _, p := range []struct{ mc, kc, nc int }{
		{8, 8, 8}, {12, 5, 16}, {4, 1, 4}, {7, 3, 9}, {16, 64, 8},
	} {
		k := Kernel{mc: p.mc, kc: p.kc, nc: p.nc}
		equalOrBothNaN(t, k.Mul(a, b), want, kernelTol(38))
	}
}

// TestKernelRandomizedShapes cross-checks the kernel against the naive
// oracle over randomly drawn shapes, both through the default blocking
// and through a shrunken blocking that exercises panel seams.
func TestKernelRandomizedShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 40; trial++ {
		m, k, n := 1+rng.Intn(70), 1+rng.Intn(70), 1+rng.Intn(70)
		a, b := randDense(rng, m, k), randDense(rng, k, n)
		want := mulNaive(a, b)
		equalOrBothNaN(t, Kernel{}.Mul(a, b), want, kernelTol(k))
		small := Kernel{mc: 8, kc: 8, nc: 8}
		equalOrBothNaN(t, small.Mul(a, b), want, kernelTol(k))
	}
}

// TestKernelMulAddAccumulates verifies the += contract: MulAdd into a
// non-zero C adds the product on top of the existing contents.
func TestKernelMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a, b := randDense(rng, 30, 40), randDense(rng, 40, 20)
	c := randDense(rng, 30, 20)
	want := c.Clone()
	prod := mulNaive(a, b)
	for i := 0; i < want.Rows; i++ {
		for j := 0; j < want.Cols; j++ {
			want.Set(i, j, want.At(i, j)+prod.At(i, j))
		}
	}
	Kernel{}.MulAdd(c, a, b)
	equalOrBothNaN(t, c, want, kernelTol(40))
}

// TestKernelNaNInfPropagation plants NaN and ±Inf in both operands and
// checks the kernel propagates them exactly where the naive oracle
// does. Inputs are drawn non-negative so Inf contributions cannot
// cancel into reassociation-ordered NaNs; the planted Inf/NaN cells
// dominate their row/column products deterministically.
func TestKernelNaNInfPropagation(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	const m, k, n = 37, 29, 33
	a, b := NewDense(m, k), NewDense(k, n)
	for i := range a.Data {
		a.Data[i] = rng.Float64() + 0.5
	}
	for i := range b.Data {
		b.Data[i] = rng.Float64() + 0.5
	}
	a.Set(3, 7, math.NaN())
	a.Set(20, 11, math.Inf(1))
	b.Set(5, 30, math.Inf(-1))
	b.Set(28, 2, math.NaN())
	want := mulNaive(a, b)
	// Sanity: the planted specials must actually reach the output.
	if !math.IsNaN(want.At(3, 0)) || !math.IsInf(want.At(20, 0), 1) {
		t.Fatal("test setup: specials did not propagate in the oracle")
	}
	equalOrBothNaN(t, Kernel{}.Mul(a, b), want, kernelTol(k))
	equalOrBothNaN(t, Kernel{mc: 8, kc: 8, nc: 8}.Mul(a, b), want, kernelTol(k))
}

// TestKernelParallelMatchesSerial runs the worker-pool path (exercised
// under -race in CI) against the serial kernel and the naive oracle,
// with blocking small enough that several row panels exist to contend
// over.
func TestKernelParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, sz := range [][3]int{{64, 64, 64}, {97, 53, 61}, {130, 40, 70}} {
		m, k, n := sz[0], sz[1], sz[2]
		a, b := randDense(rng, m, k), randDense(rng, k, n)
		want := mulNaive(a, b)
		for _, threads := range []int{2, 4, 8} {
			par := Kernel{Threads: threads, mc: 16, kc: 32, nc: 64}
			equalOrBothNaN(t, par.Mul(a, b), want, kernelTol(k))
		}
	}
}

// TestKernelParallelConcurrentCallers hammers one shared (by-value)
// kernel configuration from several goroutines at once, proving the
// pack-buffer pool and worker pool are safe under concurrent Mul calls,
// not just within one.
func TestKernelParallelConcurrentCallers(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	a, b := randDense(rng, 96, 64), randDense(rng, 64, 80)
	want := mulNaive(a, b)
	k := Kernel{Threads: 4, mc: 16, kc: 32, nc: 32}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got := k.Mul(a, b)
			if !got.EqualApprox(want, kernelTol(64)) {
				errs <- "concurrent kernel result diverged from oracle"
			}
		}()
	}
	wg.Wait()
	close(errs)
	if msg, open := <-errs; open {
		t.Fatal(msg)
	}
}

// TestBlockMulAddMatchesNaive routes the block kernel over ragged block
// shapes and compares against a hand-rolled naive block multiply.
func TestBlockMulAddMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, s := range [][3]int{{1, 1, 1}, {4, 4, 4}, {5, 3, 7}, {33, 17, 29}, {64, 64, 64}, {129, 65, 67}} {
		m, k, n := s[0], s[1], s[2]
		ab := NewBlock(0, 0, m, k)
		bb := NewBlock(0, 0, k, n)
		cb := NewBlock(0, 0, m, n)
		for i := range ab.Data {
			ab.Data[i] = 2*rng.Float64() - 1
		}
		for i := range bb.Data {
			bb.Data[i] = 2*rng.Float64() - 1
		}
		want := NewBlock(0, 0, m, n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var sum float64
				for p := 0; p < k; p++ {
					sum += ab.At(i, p) * bb.At(p, j)
				}
				want.Set(i, j, sum)
			}
		}
		MulAdd(cb, ab, bb)
		for i := range cb.Data {
			if math.Abs(cb.Data[i]-want.Data[i]) > kernelTol(k) {
				t.Fatalf("block %dx%dx%d: element %d: got %v want %v", m, k, n, i, cb.Data[i], want.Data[i])
			}
		}
	}
}

// TestPackAPadsAndInterleaves pins the packed-A layout: mr-tall
// micro-panels, k-major within a panel, zero padding past the last row.
func TestPackAPadsAndInterleaves(t *testing.T) {
	const m, k, lda = 5, 3, 4 // 5 rows → one full micro-panel + 1-row edge
	const mr = 4              // packing block under test
	a := make([]float64, (m-1)*lda+k)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			a[i*lda+p] = float64(10*i + p)
		}
	}
	dst := make([]float64, roundUp(m, mr)*k)
	packA(dst, m, k, a, lda, mr)
	// Micro-panel 0, k=1 group must be rows 0..3 at column 1.
	group := dst[mr*1 : mr*1+mr]
	for i, v := range group {
		if want := float64(10*i + 1); v != want {
			t.Fatalf("packA panel0 k=1 row %d: got %v want %v", i, v, want)
		}
	}
	// Micro-panel 1 holds row 4 then three zero-padded rows.
	p1 := dst[mr*k:]
	for p := 0; p < k; p++ {
		if p1[mr*p] != float64(40+p) {
			t.Fatalf("packA panel1 k=%d: got %v want %v", p, p1[mr*p], float64(40+p))
		}
		for i := 1; i < mr; i++ {
			if p1[mr*p+i] != 0 {
				t.Fatalf("packA panel1 k=%d pad row %d: got %v want 0", p, i, p1[mr*p+i])
			}
		}
	}
}

// TestPackBufPoolBounds checks the pack-buffer pool never parks
// oversized buffers: a buffer beyond the pooling cap is dropped for the
// GC on put.
func TestPackBufPoolBounds(t *testing.T) {
	huge := getPackBuf(maxPooledPanel + 1)
	putPackBuf(huge)
	if huge.s != nil {
		t.Fatal("oversized pack buffer retained by the pool")
	}
	small := getPackBuf(64)
	putPackBuf(small)
	if cap(small.s) < 64 {
		t.Fatal("small pack buffer dropped")
	}
}
