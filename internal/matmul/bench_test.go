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
