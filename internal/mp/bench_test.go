package mp

import "testing"

// BenchmarkPingPongSim measures matched send/recv pairs on the simulated
// backend.
func BenchmarkPingPongSim(b *testing.B) {
	w := NewSimWorld(testHW(), 2)
	n := b.N
	b.ResetTimer()
	err := w.Run(func(r *Rank) {
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				r.Send(1, 0, nil, 64)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, nil, 64)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkPingPongReal measures the goroutine backend's matching engine.
func BenchmarkPingPongReal(b *testing.B) {
	w := NewRealWorld(2)
	n := b.N
	b.ResetTimer()
	err := w.Run(func(r *Rank) {
		for i := 0; i < n; i++ {
			if r.ID() == 0 {
				r.Send(1, 0, nil, 64)
				r.Recv(1, 1)
			} else {
				r.Recv(0, 0)
				r.Send(0, 1, nil, 64)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkBarrier8 measures the dissemination barrier on 8 ranks.
func BenchmarkBarrier8(b *testing.B) {
	w := NewSimWorld(testHW(), 8)
	n := b.N
	b.ResetTimer()
	err := w.Run(func(r *Rank) {
		for i := 0; i < n; i++ {
			r.Barrier()
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
