package gentleman

import "testing"

// BenchmarkGentlemanFine runs Gentleman's Algorithm on paper-fine's
// problem on the goroutine backend, the time matmul's
// BenchmarkPhase2DFine is compared with.
func BenchmarkGentlemanFine(b *testing.B) {
	b.ReportAllocs()
	if err := BenchFine(b.N); err != nil {
		b.Fatal(err)
	}
}
