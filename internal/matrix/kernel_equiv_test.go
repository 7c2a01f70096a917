package matrix

import (
	"fmt"
	"math"
	"os"
	"slices"
	"testing"
)

// Cross-variant equivalence suite: every micro-kernel this host can
// execute (the pure-Go oracle and, on capable amd64 hosts, the
// AVX2+FMA and AVX-512F assembly variants) must agree with the naive triple loop on
// adversarial shapes — tile edges, degenerate dimensions, strided
// views, aliased operands, and non-finite values. The suite runs under
// -race in CI, so the threaded driver is exercised for data races too.

// logVariants names the variants a suite exercises, so a log from a
// host without AVX-512 or AVX2 shows which kernels were skipped.
func logVariants(t *testing.T, vs []*microKernel) {
	t.Helper()
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.name
	}
	t.Logf("kernel variants on this host: %v", names)
}

// TestCPUDetectionIsConsistent pins the feature-detect contract: the
// AVX-512F kernel runs only where the AVX2+FMA one does, "avx512f" is
// listed in CPUFeatures exactly when it is usable, and kernelVariants
// lists exactly the variants the detected features allow.
func TestCPUDetectionIsConsistent(t *testing.T) {
	if cpuHasAVX512() && !cpuHasAVX2FMA() {
		t.Fatal("AVX-512F detected without AVX2+FMA")
	}
	if got := slices.Contains(CPUFeatures(), "avx512f"); got != cpuHasAVX512() {
		t.Fatalf("avx512f listed = %v, detected = %v", got, cpuHasAVX512())
	}
	want := 1
	if cpuHasAVX2FMA() {
		want++
	}
	if cpuHasAVX512() {
		want++
	}
	if vs := kernelVariants(); len(vs) != want || vs[0] != goKernel {
		t.Fatalf("kernelVariants = %d variants starting %s, want %d starting %s",
			len(vs), vs[0].name, want, goKernel.name)
	}
}

// TestDispatchPicksWidestVariant pins the dispatch order avx512 → avx2
// → go: without NAVP_NOSIMD the active kernel is the last, widest entry
// of kernelVariants.
func TestDispatchPicksWidestVariant(t *testing.T) {
	if os.Getenv("NAVP_NOSIMD") != "" {
		if ActiveKernel() != goKernel.name {
			t.Fatalf("NAVP_NOSIMD set but ActiveKernel() = %s", ActiveKernel())
		}
		return
	}
	vs := kernelVariants()
	logVariants(t, vs)
	if got, want := ActiveKernel(), vs[len(vs)-1].name; got != want {
		t.Fatalf("ActiveKernel() = %s, want the widest variant %s", got, want)
	}
}

// TestZeroKernelUsesVariantBlocking pins Kernel.config's contract: with
// no override a variant runs its own mc/kc/nc rounded to whole tiles,
// ActiveBlocking reports what the zero Kernel runs, and resolving the
// blocking (once per block product) allocates nothing.
func TestZeroKernelUsesVariantBlocking(t *testing.T) {
	for _, v := range kernelVariants() {
		got, mc, kc, nc := Kernel{variant: v}.config()
		want := [3]int{roundUp(v.mc, v.mr), v.kc, roundUp(v.nc, v.nr)}
		if got != v || [3]int{mc, kc, nc} != want {
			t.Errorf("%s: config() = %s %d/%d/%d, want %s %v", v.name, got.name, mc, kc, nc, v.name, want)
		}
	}
	_, mc, kc, nc := Kernel{}.config()
	if amc, akc, anc, _ := ActiveBlocking(); [3]int{amc, akc, anc} != [3]int{mc, kc, nc} {
		t.Errorf("ActiveBlocking() = %d/%d/%d, Kernel{}.config() = %d/%d/%d", amc, akc, anc, mc, kc, nc)
	}
	if got := testing.AllocsPerRun(100, func() { Kernel{}.config() }); got != 0 {
		t.Errorf("Kernel{}.config(): %v allocs, want 0", got)
	}
}

// equivKernels returns one Kernel per executable variant, each with
// small blocking so multi-panel paths engage at test sizes.
func equivKernels() map[string]Kernel {
	ks := map[string]Kernel{}
	for _, v := range kernelVariants() {
		ks[v.name] = Kernel{mc: 2 * v.mr, kc: 7, nc: 2 * v.nr, variant: v}
	}
	return ks
}

// TestVariantsMatchNaiveAdversarialShapes sweeps shapes chosen to land
// on every edge-handling path: non-multiples of both register block
// dimensions, single rows/columns, and tall/skinny panels.
func TestVariantsMatchNaiveAdversarialShapes(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1},    // degenerate everything
		{1, 1, 5},    // dot product
		{1, 17, 3},   // single row, ragged n
		{17, 1, 3},   // single column
		{5, 7, 9},    // all dims off-block
		{6, 8, 4},    // exactly one avx2 tile
		{7, 9, 4},    // one tile + 1 edge row/col
		{12, 16, 13}, // full tiles, k crosses kc=7
		{13, 17, 13}, // full tiles + edges, k crosses kc
		{37, 5, 29},  // tall and skinny
		{5, 37, 29},  // short and wide
		{23, 23, 1},  // k=1: single rank-1 update
		{48, 48, 48}, // several cache blocks in every dim
	}
	for name, kern := range equivKernels() {
		for _, s := range shapes {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", name, s.m, s.n, s.k), func(t *testing.T) {
				rng := NewSeeded(int64(7*s.m + 5*s.n + 3*s.k))
				a, b := NewDense(s.m, s.k), NewDense(s.k, s.n)
				a.FillRandom(rng)
				b.FillRandom(rng)
				equalOrBothNaN(t, kern.Mul(a, b), mulNaive(a, b), kernelTol(s.k))
			})
		}
	}
}

// TestVariantsAgreeExactly pins that the assembly variants and the Go
// oracle produce *bitwise identical* results, not merely close ones:
// both accumulate c[i][j] as an ordered sum over p of a[i][p]·b[p][j]
// in float64, FMA contraction aside — and FMA only tightens each step.
// Bitwise agreement is what lets the sim tables be regenerated on any
// host without a tolerance footnote.
//
// The inputs are small integers, for which FMA contraction is exact,
// so any divergence is a real layout or ordering bug.
func TestVariantsAgreeExactly(t *testing.T) {
	vs := kernelVariants()
	logVariants(t, vs)
	if len(vs) < 2 {
		t.Skip("host has only the portable variant")
	}
	shapes := []struct{ m, n, k int }{
		{6, 8, 16},   // exactly one avx2 tile
		{8, 16, 16},  // exactly one avx512 tile
		{13, 19, 31}, // tiles + edges for every variant
		{17, 33, 31}, // two avx512 tiles each way + one edge row and column
		{40, 40, 40},
	}
	for _, s := range shapes {
		a, b := NewDense(s.m, s.k), NewDense(s.k, s.n)
		for i := range a.Data {
			a.Data[i] = float64(i%5 - 2)
		}
		for i := range b.Data {
			b.Data[i] = float64(i%7 - 3)
		}
		ref := (Kernel{variant: vs[0], mc: 12, kc: 8, nc: 16}).Mul(a, b)
		for _, v := range vs[1:] {
			t.Run(fmt.Sprintf("%s/%dx%dx%d", v.name, s.m, s.n, s.k), func(t *testing.T) {
				got := (Kernel{variant: v, mc: 12, kc: 8, nc: 16}).Mul(a, b)
				for i := range ref.Data {
					if got.Data[i] != ref.Data[i] {
						t.Fatalf("diverges from %s at flat index %d: %v != %v",
							vs[0].name, i, got.Data[i], ref.Data[i])
					}
				}
			})
		}
	}
}

// TestVariantsKZero pins the k=0 contract: a multiply with an empty
// inner dimension is a no-op accumulation, so MulAdd must leave a
// pre-filled C untouched. NewDense rejects zero dims, so the views are
// built directly.
func TestVariantsKZero(t *testing.T) {
	for name, kern := range equivKernels() {
		t.Run(name, func(t *testing.T) {
			a := &Dense{Rows: 3, Cols: 0, Stride: 1, Data: nil}
			b := &Dense{Rows: 0, Cols: 4, Stride: 4, Data: nil}
			c := NewDense(3, 4)
			for i := range c.Data {
				c.Data[i] = float64(i) + 0.25
			}
			want := c.Clone()
			kern.MulAdd(c, a, b)
			for i := range c.Data {
				if c.Data[i] != want.Data[i] {
					t.Fatalf("k=0 MulAdd modified C at %d: %v != %v", i, c.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestVariantsStridedViews runs every variant over operands whose
// Stride exceeds Cols (sub-matrix views), the layout the distributed
// blocks use; the packing routines must honor lda/ldb/ldc, not assume
// compact rows.
func TestVariantsStridedViews(t *testing.T) {
	const m, n, k, pad = 11, 13, 9, 5
	rng := NewSeeded(99)
	backA := NewDense(m, k+pad)
	backB := NewDense(k, n+pad)
	backA.FillRandom(rng)
	backB.FillRandom(rng)
	a := &Dense{Rows: m, Cols: k, Stride: k + pad, Data: backA.Data}
	b := &Dense{Rows: k, Cols: n, Stride: n + pad, Data: backB.Data}
	want := mulNaive(a, b)
	for name, kern := range equivKernels() {
		t.Run(name, func(t *testing.T) {
			backC := NewDense(m, n+pad)
			c := &Dense{Rows: m, Cols: n, Stride: n + pad, Data: backC.Data}
			kern.MulAdd(c, a, b)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					if math.Abs(c.At(i, j)-want.At(i, j)) > kernelTol(k) {
						t.Fatalf("strided C (%d,%d): %v != %v", i, j, c.At(i, j), want.At(i, j))
					}
				}
				// The padding lane must stay untouched.
				for j := n; j < n+pad; j++ {
					if backC.At(i, j) != 0 {
						t.Fatalf("padding (%d,%d) written: %v", i, j, backC.At(i, j))
					}
				}
			}
		})
	}
}

// TestVariantsAliasedSquare pins Mul(a, a): the packing step snapshots
// both operands before any C write, so squaring in place of distinct
// operands must match the naive result.
func TestVariantsAliasedSquare(t *testing.T) {
	for name, kern := range equivKernels() {
		t.Run(name, func(t *testing.T) {
			a := NewDense(19, 19)
			a.FillRandom(NewSeeded(5))
			equalOrBothNaN(t, kern.Mul(a, a), mulNaive(a, a), kernelTol(19))
		})
	}
}

// TestVariantsNaNInf pins IEEE semantics through every variant: NaN
// and ±Inf in either operand must propagate exactly as the naive
// triple loop propagates them (the padded tile edges must not bleed
// zeros into the contamination pattern).
func TestVariantsNaNInf(t *testing.T) {
	const m, n, k = 9, 11, 7
	rng := NewSeeded(31)
	a, b := NewDense(m, k), NewDense(k, n)
	a.FillRandom(rng)
	b.FillRandom(rng)
	a.Set(2, 3, math.NaN())
	a.Set(8, 0, math.Inf(1))
	b.Set(4, 10, math.Inf(-1))
	want := mulNaive(a, b)
	for name, kern := range equivKernels() {
		t.Run(name, func(t *testing.T) {
			got := kern.Mul(a, b)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					g, w := got.At(i, j), want.At(i, j)
					if math.IsNaN(w) != math.IsNaN(g) {
						t.Fatalf("(%d,%d): NaN mismatch got %v want %v", i, j, g, w)
					}
					if !math.IsNaN(w) && g != w && math.Abs(g-w) > kernelTol(k)*math.Max(1, math.Abs(w)) {
						t.Fatalf("(%d,%d): got %v want %v", i, j, g, w)
					}
				}
			}
		})
	}
}

// TestVariantsThreadedEquivalence runs the column-panel parallel driver
// for every variant and thread count against the serial result. The
// partition is by disjoint jc panels with identical packing, so the
// results must be bitwise equal, and under -race this doubles as the
// driver's data-race test.
func TestVariantsThreadedEquivalence(t *testing.T) {
	const n = 70 // several panels wide at nc=2·nr
	a, b := RandomPair(NewSeeded(11), n)
	for name, kern := range equivKernels() {
		serial := kern.Mul(a, b)
		for _, threads := range []int{2, 3, 5, 16} {
			kt := kern
			kt.Threads = threads
			t.Run(fmt.Sprintf("%s/t=%d", name, threads), func(t *testing.T) {
				got := kt.Mul(a, b)
				for i := range serial.Data {
					if got.Data[i] != serial.Data[i] {
						t.Fatalf("threaded result diverges from serial at flat index %d: %v != %v",
							i, got.Data[i], serial.Data[i])
					}
				}
			})
		}
	}
}

// packedOracle computes C += A·B (one k panel) the way the packed
// path does — packA, packB, macroKernel over a single mc×nc panel —
// without going through Kernel, so the direct path has an oracle that
// cannot take the direct path itself.
func packedOracle(v *microKernel, m, n, kk int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	ap := make([]float64, roundUp(m, v.mr)*kk)
	bp := make([]float64, kk*roundUp(n, v.nr))
	packA(ap, m, kk, a, lda, v.mr)
	packB(bp, kk, n, b, ldb, v.nr)
	macroKernel(v, m, n, kk, ap, bp, c, ldc)
}

// TestDirectMatchesPackedBitwise pins that products small enough for
// the in-place path (gemmInPlace) give bitwise the result of the packed
// path for every variant: full tiles, shifted edge tiles, strided
// views, and kk at the directMaxK boundary. Slivers narrower than one
// tile are in the list too; gemm sends them to the packed path. The
// inputs are random non-integers, so any change in the order or fusion
// of a single FMA chain shows.
func TestDirectMatchesPackedBitwise(t *testing.T) {
	shapes := []struct{ m, n, k, pad int }{
		{16, 16, 16, 0}, // paper-fine's block
		{1, 1, 5, 0},    // sliver in both dimensions
		{5, 7, 9, 0},    // sliver rows for avx2, edges for go
		{6, 8, 1, 0},    // exactly one avx2 tile, k=1
		{7, 9, 16, 0},   // one tile + shifted edge row and column
		{8, 16, 1, 0},   // exactly one avx512 tile, k=1
		{9, 17, 16, 0},  // one avx512 tile + shifted edge row and column
		{13, 17, 13, 0}, // several tiles + edges
		{24, 24, 24, 0},
		{32, 32, 32, 0}, // the directMaxFlops boundary
		{16, 32, 64, 0}, // both boundaries: kk = directMaxK at 32³ flops
		{10, 3, 64, 0},  // kk at the boundary, sliver columns
		{11, 13, 9, 5},  // strided views: lda > k, ldb > n, ldc > n
		{16, 16, 16, 3},
	}
	vs := kernelVariants()
	logVariants(t, vs)
	for _, v := range vs {
		for _, s := range shapes {
			t.Run(fmt.Sprintf("%s/%dx%dx%d+%d", v.name, s.m, s.n, s.k, s.pad), func(t *testing.T) {
				if s.k > directMaxK || s.m*s.n*s.k > directMaxFlops {
					t.Fatalf("shape is not on the direct path")
				}
				rng := NewSeeded(int64(11*s.m + 7*s.n + 3*s.k + s.pad))
				lda, ldb, ldc := s.k+s.pad, s.n+s.pad, s.n+s.pad
				a, b := make([]float64, s.m*lda), make([]float64, s.k*ldb)
				c := make([]float64, s.m*ldc)
				for _, x := range [][]float64{a, b, c} {
					for i := range x {
						x[i] = rng.Float64()*2 - 1
					}
				}
				want := append([]float64(nil), c...)
				packedOracle(v, s.m, s.n, s.k, a, lda, b, ldb, want, ldc)
				Kernel{variant: v, kc: directMaxK}.gemm(s.m, s.n, s.k, a, lda, b, ldb, c, ldc)
				for i := range want {
					if math.Float64bits(c[i]) != math.Float64bits(want[i]) {
						t.Fatalf("flat index %d (row %d, col %d): direct %v != packed %v",
							i, i/ldc, i%ldc, c[i], want[i])
					}
				}
			})
		}
	}
}

// TestGemmAllocatesNothing pins DESIGN.md §10.1's zero-allocation
// claim: a block product allocates nothing at paper-fine's BS=16 (the
// in-place path), nor at BS=64 and paper-coarse's BS=256 (the packed
// path, whose edge tiles once escaped their scratch tile to the heap),
// nor does an n=1024 multiply into an existing C. The race detector
// makes sync.Pool drop items on purpose, so the pooled cases only run
// without it.
func TestGemmAllocatesNothing(t *testing.T) {
	for _, bs := range []int{16, 64, 256} {
		t.Run(fmt.Sprintf("MulAdd/bs=%d", bs), func(t *testing.T) {
			if raceEnabled && bs*bs*bs > directMaxFlops {
				t.Skip("sync.Pool drops items under the race detector")
			}
			c, a, b := benchBlocks(bs)
			if got := testing.AllocsPerRun(20, func() { MulAdd(c, a, b) }); got != 0 {
				t.Fatalf("MulAdd at BS=%d: %v allocs, want 0", bs, got)
			}
		})
	}
	t.Run("Kernel.MulAdd/n=1024", func(t *testing.T) {
		if raceEnabled {
			t.Skip("sync.Pool drops items under the race detector")
		}
		if testing.Short() {
			t.Skip("an n=1024 multiply per run")
		}
		x, y := RandomPair(NewSeeded(4), 1024)
		c := NewDense(1024, 1024)
		if got := testing.AllocsPerRun(3, func() { Kernel{}.MulAdd(c, x, y) }); got != 0 {
			t.Fatalf("Kernel{}.MulAdd at n=1024: %v allocs, want 0", got)
		}
	})
}
