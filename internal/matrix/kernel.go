package matrix

import (
	"fmt"
	"sync"
)

// This file is the repository's GEMM fast path: a cache-aware, packed,
// register-blocked multiply kernel in the BLIS/GotoBLAS style. The
// driver and packing layer are pure Go; the innermost register block is
// pluggable (a microKernel variant), so the same driver runs the
// portable 4×4 pure-Go micro-kernel, the AVX2+FMA 6×8 assembly
// micro-kernel or the AVX-512F 8×16 one, selected at runtime by
// CPU-feature detection (kernel_amd64.go). See DESIGN.md §10 for the
// packing layout and §15 for the assembly ABI and dispatch rules.
//
// The driver walks three cache-blocking loops (jc over C columns, pc
// over the inner dimension, ic over C rows). Each (pc, jc) iteration
// packs a kc×nc panel of B into contiguous nr-wide micro-panels; each
// (ic) iteration packs an mc×kc panel of A into mr-tall micro-panels.
// The innermost loops then sweep an mr×nr register-blocked micro-kernel
// over the packed panels, so the hot loop reads two sequential streams
// and writes one small C tile — no strided access, no data-dependent
// branches, edge tiles handled by zero padding.
//
// Products that fit one short k panel and span at least one tile
// (paper-fine's 16×16 blocks) skip packing: gemmInPlace sweeps the same
// micro-kernel over the unpacked operands, which the kernel's stride
// arguments allow.

// microKernel is one register-block variant: an mr×nr C tile
// accumulated over kcc steps by its kern method (kernel_amd64.go,
// kernel_noasm.go). kern reads A and B through strides, so one kernel
// serves packed micro-panels and unpacked row-major operands alike: it
// must compute
//
//	c[i*ldc+j] += Σ_p a[i*rsa+p*csa] · b[p*rsb+j]
//
// for the full mr×nr tile, accumulating from zero and adding to c once.
// Packed panels are (rsa, csa, rsb) = (1, mr, nr); a row-major operand
// is (lda, 1, ldb). Callers pass a zeroed scratch tile for edges.
//
// mc, kc and nc are the variant's cache-blocking parameters: kc×nr and
// mr×kc micro-panels are sized so a B panel slice and an A panel slice
// sit in L1 together, and mc×kc A panels target L2. Every host runs
// them as declared (DESIGN.md §15.2).
type microKernel struct {
	name       string
	mr, nr     int
	mc, kc, nc int
}

// maxMR/maxNR bound the register-block shapes of every compiled variant;
// edge-tile scratch buffers are sized by them.
const (
	maxMR = 8
	maxNR = 16
)

// goKernel is the portable fallback variant — and the equivalence oracle
// the assembly variants are tested against. Always compiled, selected when
// the host lacks AVX2+FMA or NAVP_NOSIMD is set.
var goKernel = &microKernel{name: "go-4x4", mr: 4, nr: 4, mc: 256, kc: 256, nc: 2048}

// directMaxK and directMaxFlops bound the products gemm runs in place
// on the unpacked operands (gemmInPlace, which also needs one full
// tile): one k panel of at most 64 and at most 32³ multiply-adds, small
// enough that A, B and C stay in cache while the tiles sweep them, so
// packing would copy more than the kernel reuses. The flop bound is the
// go-4x4 kernel's: measured against the packed path it breaks even at
// 32³ and loses from 40³ (its 4-wide tiles use half of each B cache
// line in place), while the AVX2 kernel still wins at 64³.
const (
	directMaxK     = 64
	directMaxFlops = 32 * 32 * 32
)

// Kernel is a configurable GEMM driver. The zero value is the serial
// fast path used by Mul and Block MulAdd: it runs the best
// micro-kernel the host supports with that variant's own blocking.
// Threads > 1 additionally spreads column panels of C over a worker pool
// (real OS concurrency — see parallel.go for why this stays outside the
// simulation domain).
type Kernel struct {
	// Threads is the number of column-panel workers; 0 and 1 both mean
	// serial.
	Threads int

	// Cache-blocking overrides used by tests to force panel edges with
	// small inputs; zero means the variant's own parameters.
	mc, kc, nc int

	// variant forces a specific micro-kernel; nil means the dispatcher's
	// choice (activeVariant). Tests use it to cross-check variants.
	variant *microKernel
}

// config resolves the micro-kernel variant and cache-blocking parameters
// for one gemm call: a test override where one is set, the variant's
// own constants otherwise. Panels are rounded up to whole micro-tiles.
func (k Kernel) config() (v *microKernel, mc, kc, nc int) {
	v = k.variant
	if v == nil {
		v = activeVariant()
	}
	mc, kc, nc = k.mc, k.kc, k.nc
	if mc <= 0 {
		mc = v.mc
	}
	if kc <= 0 {
		kc = v.kc
	}
	if nc <= 0 {
		nc = v.nc
	}
	mc = roundUp(mc, v.mr)
	nc = roundUp(nc, v.nr)
	return v, mc, kc, nc
}

func roundUp(v, q int) int { return (v + q - 1) / q * q }

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// ActiveKernel reports the micro-kernel variant the dispatcher selected
// for this host: "avx512-8x16" when the CPU and OS support AVX-512F,
// else "avx2-6x8" when they support AVX2+FMA, and "go-4x4" when
// neither holds or NAVP_NOSIMD is set. Recorded in the
// BENCH_kernels.json header.
func ActiveKernel() string { return activeVariant().name }

// ActiveBlocking reports the cache-blocking parameters a zero-value
// Kernel will run with. They are always the active variant's own
// constants, so source is always "default"; it stays only because the
// navpbench header still prints it.
func ActiveBlocking() (mc, kc, nc int, source string) {
	_, mc, kc, nc = Kernel{}.config()
	return mc, kc, nc, "default"
}

// Mul returns a×b through the GEMM kernel.
func (k Kernel) Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("matrix: inner dimension mismatch %d vs %d", a.Cols, b.Rows))
	}
	c := NewDense(a.Rows, b.Cols)
	k.MulAdd(c, a, b)
	return c
}

// MulAdd computes c += a×b through the GEMM kernel.
func (k Kernel) MulAdd(c, a, b *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("matrix: MulAdd shape mismatch: c %d×%d, a %d×%d, b %d×%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k.gemm(a.Rows, b.Cols, a.Cols, a.Data, a.Stride, b.Data, b.Stride, c.Data, c.Stride)
}

// gemm computes C += A·B for row-major operands with explicit leading
// dimensions. It is the single entry point every public multiply routes
// through.
func (k Kernel) gemm(m, n, kk int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	if m == 0 || n == 0 || kk == 0 {
		return
	}
	v, mc, kc, nc := k.config()
	if kk <= min(kc, directMaxK) && m*n*kk <= directMaxFlops && m >= v.mr && n >= v.nr {
		gemmInPlace(v, m, n, kk, a, lda, b, ldb, c, ldc)
		return
	}
	if k.Threads > 1 {
		k.gemmParallel(v, mc, kc, nc, m, n, kk, a, lda, b, ldb, c, ldc)
		return
	}
	bp := getPackBuf(kc * roundUp(min(nc, n), v.nr))
	ap := getPackBuf(mc * kc)
	defer putPackBuf(bp)
	defer putPackBuf(ap)
	for jc := 0; jc < n; jc += nc {
		ncc := min(nc, n-jc)
		for pc := 0; pc < kk; pc += kc {
			kcc := min(kc, kk-pc)
			packB(bp.s, kcc, ncc, b[pc*ldb+jc:], ldb, v.nr)
			for ic := 0; ic < m; ic += mc {
				mcc := min(mc, m-ic)
				packA(ap.s, mcc, kcc, a[ic*lda+pc:], lda, v.mr)
				macroKernel(v, mcc, ncc, kcc, ap.s, bp.s, c[ic*ldc+jc:], ldc)
			}
		}
	}
}

// gemmInPlace computes C += A·B (m×n, one k panel of kk, m ≥ mr and
// n ≥ nr) by sweeping the micro-kernel over the row-major operands
// where they lie: no packing, no pooled buffer. Full tiles accumulate
// straight into C. An edge tile is shifted back inside the operands,
// computed into a stack scratch tile, and only the rows and columns no
// earlier tile covered are folded into C; each C element depends on its
// own row of A and column of B alone, so the overlap changes nothing.
// Only edge tiles touch the scratch tile, so a product made of full
// tiles (paper-fine's 16×16 on the 8×16 kernel) never zeroes it.
// Every element is the FMA chain from zero the packed path runs, added
// once, so the two paths agree bitwise. Products narrower than one tile
// take the packed path, whose panels are zero padded.
func gemmInPlace(v *microKernel, m, n, kk int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	mr, nr := v.mr, v.nr
	for ir := 0; ir < m; ir += mr {
		i0 := min(ir, m-mr)
		for jr := 0; jr < n; jr += nr {
			j0 := min(jr, n-nr)
			at, bt := a[i0*lda:], b[j0:]
			if ir == i0 && jr == j0 {
				v.kern(kk, at, lda, 1, bt, ldb, c[ir*ldc+jr:], ldc)
				continue
			}
			var scratch [maxMR * maxNR]float64
			v.kern(kk, at, lda, 1, bt, ldb, scratch[:], nr)
			for i := ir; i < i0+mr; i++ {
				crow := c[i*ldc+jr : i*ldc+j0+nr]
				srow := scratch[(i-i0)*nr+jr-j0:][:len(crow)]
				for j := range crow {
					crow[j] += srow[j]
				}
			}
		}
	}
}

// macroKernel sweeps the micro-kernel over one packed A panel (mcc×kcc)
// and one packed B panel (kcc×ncc), updating the C tile at c (leading
// dimension ldc).
func macroKernel(v *microKernel, mcc, ncc, kcc int, ap, bp []float64, c []float64, ldc int) {
	mr, nr := v.mr, v.nr
	for jr := 0; jr < ncc; jr += nr {
		nrr := min(nr, ncc-jr)
		bpanel := bp[(jr/nr)*kcc*nr:]
		for ir := 0; ir < mcc; ir += mr {
			mrr := min(mr, mcc-ir)
			apanel := ap[(ir/mr)*kcc*mr:]
			if mrr == mr && nrr == nr {
				v.kern(kcc, apanel, 1, mr, bpanel, nr, c[ir*ldc+jr:], ldc)
				continue
			}
			// Edge tile: accumulate into a zeroed scratch tile (the
			// packed panels are zero padded, so the extra lanes compute
			// harmless zeros), then fold the valid region into C.
			var scratch [maxMR * maxNR]float64
			v.kern(kcc, apanel, 1, mr, bpanel, nr, scratch[:], nr)
			for i := 0; i < mrr; i++ {
				crow := c[(ir+i)*ldc+jr : (ir+i)*ldc+jr+nrr]
				srow := scratch[i*nr : i*nr+nrr]
				for j := range crow {
					crow[j] += srow[j]
				}
			}
		}
	}
}

// kernGo4x4 is the portable micro-kernel: a 4×4 C tile accumulated over
// kcc steps of the strided operands, computed as two register-blocked
// 2×4 halves. Two halves rather than one 16-accumulator body because
// amd64 has 16 XMM registers without AVX: 8 accumulators plus operands
// stay register resident, 16 spill to the stack every iteration
// (measured: the split kernel is ~1.7× the monolithic one). The B rows
// are only kcc×4×8 bytes, so the second pass reads them from L1.
func kernGo4x4(kcc int, a []float64, rsa, csa int, b []float64, rsb int, c []float64, ldc int) {
	half2x4(kcc, a, rsa, csa, b, rsb, c[0:], c[ldc:])
	half2x4(kcc, a[2*rsa:], rsa, csa, b, rsb, c[2*ldc:], c[3*ldc:])
}

// half2x4 accumulates rows 0 and 1 of a (at row stride rsa, k stride
// csa) against the 4-wide rows of b (stride rsb) into c0 and c1: a 2×4
// register block. Packed micro-panels take an unrolled loop whose loads
// sit at constant offsets, so the compiler checks bounds once per four
// k steps (under NAVP_NOSIMD the strided loop alone ran packed
// multiplies about 1.4× slower); the strided loop finishes the tail and
// serves unpacked operands. Both walk p in order, so the sums are
// bitwise the same.
func half2x4(kcc int, a []float64, rsa, csa int, b []float64, rsb int, c0, c1 []float64) {
	var (
		c00, c01, c02, c03 float64
		c10, c11, c12, c13 float64
	)
	p := 0
	if rsa == 1 && csa == 4 && rsb == 4 {
		for ; p+4 <= kcc; p += 4 {
			x := a[4*p : 4*p+14 : 4*p+14]
			y := b[4*p : 4*p+16 : 4*p+16]
			a0, a1 := x[0], x[1]
			c00 += a0 * y[0]
			c01 += a0 * y[1]
			c02 += a0 * y[2]
			c03 += a0 * y[3]
			c10 += a1 * y[0]
			c11 += a1 * y[1]
			c12 += a1 * y[2]
			c13 += a1 * y[3]
			a0, a1 = x[4], x[5]
			c00 += a0 * y[4]
			c01 += a0 * y[5]
			c02 += a0 * y[6]
			c03 += a0 * y[7]
			c10 += a1 * y[4]
			c11 += a1 * y[5]
			c12 += a1 * y[6]
			c13 += a1 * y[7]
			a0, a1 = x[8], x[9]
			c00 += a0 * y[8]
			c01 += a0 * y[9]
			c02 += a0 * y[10]
			c03 += a0 * y[11]
			c10 += a1 * y[8]
			c11 += a1 * y[9]
			c12 += a1 * y[10]
			c13 += a1 * y[11]
			a0, a1 = x[12], x[13]
			c00 += a0 * y[12]
			c01 += a0 * y[13]
			c02 += a0 * y[14]
			c03 += a0 * y[15]
			c10 += a1 * y[12]
			c11 += a1 * y[13]
			c12 += a1 * y[14]
			c13 += a1 * y[15]
		}
	}
	a0s, a1s := a, a[rsa:]
	for ia, ib := p*csa, p*rsb; p < kcc; p, ia, ib = p+1, ia+csa, ib+rsb {
		a0, a1 := a0s[ia], a1s[ia]
		y := b[ib : ib+4 : ib+4]
		c00 += a0 * y[0]
		c01 += a0 * y[1]
		c02 += a0 * y[2]
		c03 += a0 * y[3]
		c10 += a1 * y[0]
		c11 += a1 * y[1]
		c12 += a1 * y[2]
		c13 += a1 * y[3]
	}
	c0[0] += c00
	c0[1] += c01
	c0[2] += c02
	c0[3] += c03
	c1[0] += c10
	c1[1] += c11
	c1[2] += c12
	c1[3] += c13
}

// packA copies an mcc×kcc panel of A (leading dimension lda) into dst
// as mr-tall micro-panels: micro-panel i holds columns of rows
// [i·mr, i·mr+mr) interleaved k-major, so the micro-kernel reads its
// mr A operands from consecutive memory. Rows past mcc are zero padded.
func packA(dst []float64, mcc, kcc int, a []float64, lda, mr int) {
	di := 0
	for ir := 0; ir < mcc; ir += mr {
		rows := min(mr, mcc-ir)
		for p := 0; p < kcc; p++ {
			for i := 0; i < rows; i++ {
				dst[di+i] = a[(ir+i)*lda+p]
			}
			for i := rows; i < mr; i++ {
				dst[di+i] = 0
			}
			di += mr
		}
	}
}

// packB copies a kcc×ncc panel of B (leading dimension ldb) into dst as
// nr-wide micro-panels: micro-panel j holds rows of columns
// [j·nr, j·nr+nr) interleaved k-major. Columns past ncc are zero
// padded.
func packB(dst []float64, kcc, ncc int, b []float64, ldb, nr int) {
	di := 0
	for jr := 0; jr < ncc; jr += nr {
		cols := min(nr, ncc-jr)
		for p := 0; p < kcc; p++ {
			row := b[p*ldb+jr : p*ldb+jr+cols]
			for j := 0; j < cols; j++ {
				dst[di+j] = row[j]
			}
			for j := cols; j < nr; j++ {
				dst[di+j] = 0
			}
			di += nr
		}
	}
}

// packBuf is a pooled packing buffer. Pools hand back buffers of
// whatever capacity was last stored, so get re-slices or reallocates as
// needed; buffers beyond maxPooledPanel floats are left for the GC
// rather than parked in the pool.
type packBuf struct{ s []float64 }

const maxPooledPanel = 256 * 4096

var packPool = sync.Pool{New: func() any { return &packBuf{} }}

func getPackBuf(n int) *packBuf {
	pb := packPool.Get().(*packBuf)
	if cap(pb.s) < n {
		pb.s = make([]float64, n)
	}
	pb.s = pb.s[:n]
	return pb
}

func putPackBuf(pb *packBuf) {
	if cap(pb.s) > maxPooledPanel {
		pb.s = nil
	}
	packPool.Put(pb)
}
