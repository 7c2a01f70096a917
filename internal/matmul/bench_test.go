package matmul

import "testing"

// BenchmarkPhase2DFine runs phase shifting in 2-D on the goroutine backend
// at N=512 BS=16 P=2: 32 768 block products of 8 kflop each, so the
// runtime's hops and event hand-offs, not the kernel, set the time.
func BenchmarkPhase2DFine(b *testing.B) {
	cfg := Config{N: 512, BS: 16, P: 2, Real: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Phase2D, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSequentialFine is BenchmarkPhase2DFine's twin: the same
// problem as the sequential program on one PE of the goroutine backend,
// the time Phase2D must beat.
func BenchmarkSequentialFine(b *testing.B) {
	cfg := Config{N: 512, BS: 16, P: 2, Real: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Sequential, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhase1DCoarse runs the 1-D phase-shifting stage on the
// goroutine backend at N=1536 BS=256 P=2: 216 block products of 33
// Mflop, so the kernel sets the time unless a PE's run queue leaves it
// idle (a freshly injected carrier queued behind arrivals did).
func BenchmarkPhase1DCoarse(b *testing.B) {
	cfg := Config{N: 1536, BS: 256, P: 2, Real: true, Seed: 1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(Phase1D, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
