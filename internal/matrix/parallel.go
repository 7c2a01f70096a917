//navplint:exempt simsafe
//
// This file is the one place the matrix substrate uses real OS
// concurrency: the GEMM driver's column-panel worker pool. The simsafe
// rule ("no bare goroutines in sim-domain code") exists to keep
// virtual-time schedules bit-reproducible; the kernel workers are
// outside that concern by construction — they partition disjoint
// column panels of C, read the shared operands immutably, and join
// before the driver returns, so the arithmetic result is independent
// of scheduling and no sim-kernel event ever observes the
// interleaving.

package matrix

import (
	"sync"
	"sync/atomic"
)

// gemmParallel distributes the outermost jc loop — disjoint nc-wide
// column panels of C — over k.Threads workers. Each worker owns its
// packed-B and packed-A buffers and runs the full pc/ic blocking
// structure inside its panel, so a packed B panel is reused across
// every row panel by the worker that packed it. This is what fixes the
// flat thread-scaling curve of the earlier row-panel scheme: there,
// one goroutine packed B while all workers waited on the barrier
// around it, serializing ~n·kc elements of memory traffic per (pc,jc)
// step; here packing itself is parallel and no worker ever blocks on
// another's memory traffic.
//
// Workers pull panel indices from an atomic counter so a straggler
// panel (cache-cold edge, preempted CPU) cannot unbalance the rest.
// The panel width is sized to give each thread at least two panels for
// that balancing to act on, while staying a multiple of nr and at most
// the variant's nc so cache behaviour matches the serial path.
func (k Kernel) gemmParallel(v *microKernel, mc, kc, nc, m, n, kk int, a []float64, lda int, b []float64, ldb int, c []float64, ldc int) {
	ncw := roundUp(ceilDiv(n, 2*k.Threads), v.nr)
	if ncw > nc {
		ncw = nc
	}
	panels := ceilDiv(n, ncw)
	workers := min(k.Threads, panels)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			bp := getPackBuf(kc * ncw)
			ap := getPackBuf(mc * kc)
			defer putPackBuf(bp)
			defer putPackBuf(ap)
			for {
				jc := int(next.Add(1)-1) * ncw
				if jc >= n {
					return
				}
				ncc := min(ncw, n-jc)
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
		}()
	}
	wg.Wait()
}
