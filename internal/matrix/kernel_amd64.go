//go:build amd64

package matrix

import (
	"os"
	"sync"
)

// This file is the micro-kernel dispatch layer for amd64: the assembly
// entry point declarations, their bounds-checked wrappers, and the
// runtime feature-detect selection between the AVX-512F variant, the
// AVX2+FMA variant and the portable Go fallback. Per the asmsafe rule
// (DESIGN.md §15), the assembly-backed symbols kernavx512 and kernavx2
// are referenced only from this file — every consumer goes through the
// selected microKernel value, so the pure-Go fallback stays selectable
// on every path.

// kernavx512 is implemented in kernel512_amd64.s.
//
//go:noescape
func kernavx512(kc int64, a *float64, rsa, csa int64, b *float64, rsb int64, c *float64, ldc int64)

// kernavx2 is implemented in kernel_amd64.s.
//
//go:noescape
func kernavx2(kc int64, a *float64, rsa, csa int64, b *float64, rsb int64, c *float64, ldc int64)

// avx512Kernel is the 8×16 AVX-512F register-block variant: two ZMM
// vectors per tile row, so paper-fine's 16×16 block is exactly two
// full tiles and paper-coarse's 256×256 block has no edge tile.
var avx512Kernel = &microKernel{name: "avx512-8x16", mr: 8, nr: 16, mc: 192, kc: 256, nc: 4096}

// avx2Kernel is the 6×8 AVX2+FMA register-block variant. Its tiles are
// 6 rows of A by 8 columns of B — the n dimension rides the YMM vectors
// because C is row-major, so tile rows load and store as two contiguous
// 32-byte vectors.
var avx2Kernel = &microKernel{name: "avx2-6x8", mr: 6, nr: 8, mc: 180, kc: 256, nc: 4096}

// kern runs the variant's micro-kernel on one full mr×nr tile (see
// microKernel). It branches on the variant rather than calling through
// a func value: an indirect call makes every argument escape, and the
// callers' scratch tiles must stay on the stack.
func (v *microKernel) kern(kcc int, a []float64, rsa, csa int, b []float64, rsb int, c []float64, ldc int) {
	switch v {
	case avx512Kernel:
		kernAVX512(kcc, a, rsa, csa, b, rsb, c, ldc)
	case avx2Kernel:
		kernAVX2(kcc, a, rsa, csa, b, rsb, c, ldc)
	default:
		kernGo4x4(kcc, a, rsa, csa, b, rsb, c, ldc)
	}
}

// kernAVX512 adapts the assembly ABI to the microKernel contract for a
// full 8×16 tile.
func kernAVX512(kcc int, a []float64, rsa, csa int, b []float64, rsb int, c []float64, ldc int) {
	if kcc == 0 {
		return
	}
	// The extents the assembly reads and writes, as in kernAVX2.
	_ = a[7*rsa+(kcc-1)*csa]
	_ = b[(kcc-1)*rsb+15]
	_ = c[7*ldc+15]
	kernavx512(int64(kcc), &a[0], int64(rsa), int64(csa), &b[0], int64(rsb), &c[0], int64(ldc))
}

// kernAVX2 adapts the assembly ABI to the microKernel contract for a
// full 6×8 tile.
func kernAVX2(kcc int, a []float64, rsa, csa int, b []float64, rsb int, c []float64, ldc int) {
	if kcc == 0 {
		return
	}
	// Explicit bounds assertions: the assembly reads/writes exactly
	// these extents, so a driver bug faults here, not in the kernel.
	_ = a[5*rsa+(kcc-1)*csa]
	_ = b[(kcc-1)*rsb+7]
	_ = c[5*ldc+7]
	kernavx2(int64(kcc), &a[0], int64(rsa), int64(csa), &b[0], int64(rsb), &c[0], int64(ldc))
}

var (
	dispatchOnce sync.Once
	dispatched   *microKernel
)

// activeVariant returns the micro-kernel the host runs with: the
// widest variant of kernelVariants when NAVP_NOSIMD is unset, the
// portable Go variant otherwise. Decided once per process.
func activeVariant() *microKernel {
	dispatchOnce.Do(func() {
		dispatched = goKernel
		if os.Getenv("NAVP_NOSIMD") == "" {
			vs := kernelVariants()
			dispatched = vs[len(vs)-1]
		}
	})
	return dispatched
}

// kernelVariants lists every micro-kernel this host can execute, the
// portable oracle first and the widest last. Used by the dispatcher,
// the equivalence tests and the benchmarks; NAVP_NOSIMD restricts
// dispatch, not testability.
func kernelVariants() []*microKernel {
	vs := []*microKernel{goKernel}
	if cpuHasAVX2FMA() {
		vs = append(vs, avx2Kernel)
	}
	if cpuHasAVX512() {
		vs = append(vs, avx512Kernel)
	}
	return vs
}
