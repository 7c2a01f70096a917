package matrix

import (
	"math/rand"
	"runtime"
	"testing"
)

func benchBlocks(bs int) (c, a, b *Block) {
	rng := rand.New(rand.NewSource(1))
	a = NewBlock(0, 0, bs, bs)
	b = NewBlock(0, 0, bs, bs)
	c = NewBlock(0, 0, bs, bs)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
		b.Data[i] = rng.Float64()
	}
	return c, a, b
}

// BenchmarkMulAdd measures the block kernel at the paper's block sizes.
func BenchmarkMulAdd(b *testing.B) {
	for _, bs := range []int{16, 32, 64, 128, 256} {
		bs := bs
		b.Run(itoa(bs), func(b *testing.B) {
			cb, ab, bb := benchBlocks(bs)
			b.SetBytes(int64(3 * bs * bs * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulAdd(cb, ab, bb)
			}
			flops := 2 * float64(bs) * float64(bs) * float64(bs)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

// benchPair returns a seeded random n×n multiplicand pair.
func benchPair(n int) (x, y *Dense) {
	rng := rand.New(rand.NewSource(2))
	x, y = NewDense(n, n), NewDense(n, n)
	x.FillRandom(rng)
	y.FillRandom(rng)
	return x, y
}

func reportGflops(b *testing.B, n int) {
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

// BenchmarkNaiveMul is the recorded baseline: the paper's Figure 2
// i-j-k triple loop.
func BenchmarkNaiveMul(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		n := n
		b.Run("n="+itoa(n), func(b *testing.B) {
			x, y := benchPair(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mulNaive(x, y)
			}
			reportGflops(b, n)
		})
	}
}

// BenchmarkSaxpyMul is the intermediate i-k-j loop order (what loop
// order alone buys over the naive baseline).
func BenchmarkSaxpyMul(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		n := n
		b.Run("n="+itoa(n), func(b *testing.B) {
			x, y := benchPair(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MulSaxpy(x, y)
			}
			reportGflops(b, n)
		})
	}
}

// BenchmarkKernelMul is the packed serial kernel — the fast path behind
// matrix.Mul and Block MulAdd, and the number the BENCH_kernels.json
// regression gate watches.
func BenchmarkKernelMul(b *testing.B) {
	for _, n := range []int{256, 512, 1024} {
		n := n
		b.Run("n="+itoa(n), func(b *testing.B) {
			x, y := benchPair(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Kernel{}.Mul(x, y)
			}
			reportGflops(b, n)
		})
	}
}

// BenchmarkKernelMulThreads scales the column-panel worker pool at
// n=1024 across t=1,2,4 and up through NumCPU. On a host with fewer
// CPUs than t, a row measures pool overhead, not speedup — the JSON
// regression file records NumCPU alongside and gates those rows on
// bounded overhead instead of scaling.
func BenchmarkKernelMulThreads(b *testing.B) {
	const n = 1024
	threadCounts := []int{1, 2, 4}
	for p := 8; p <= runtime.NumCPU(); p *= 2 {
		threadCounts = append(threadCounts, p)
	}
	if c := runtime.NumCPU(); c > 4 && threadCounts[len(threadCounts)-1] != c {
		threadCounts = append(threadCounts, c)
	}
	for _, threads := range threadCounts {
		threads := threads
		b.Run("t="+itoa(threads), func(b *testing.B) {
			x, y := benchPair(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Kernel{Threads: threads}.Mul(x, y)
			}
			reportGflops(b, n)
		})
	}
}

// BenchmarkPartitionAssemble measures the blocked-view conversion.
func BenchmarkPartitionAssemble(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(3))
	d := NewDense(n, n)
	d.FillRandom(rng)
	b.SetBytes(int64(n * n * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		partition(d, 128).Assemble()
	}
}

// BenchmarkSchedulePhases measures the staggering scheduler.
func BenchmarkSchedulePhases(b *testing.B) {
	p := ForwardStagger(255, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SchedulePhases(p)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
