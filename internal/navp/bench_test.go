package navp

import (
	"testing"

	"repro/internal/machine"
)

// BenchmarkHopSim measures the full cost of a simulated hop: NIC
// resources, latency bookkeeping, daemon dispatch.
func BenchmarkHopSim(b *testing.B) {
	s := NewSim(DefaultConfig(), machine.SunBlade100(), 2)
	n := b.N
	s.Inject(0, "hopper", func(ag *Agent) {
		ag.Set("payload", nil, 1024)
		for i := 0; i < n; i++ {
			ag.Hop((ag.Node().ID() + 1) % 2)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHopReal measures hop bookkeeping on the goroutine backend.
func BenchmarkHopReal(b *testing.B) {
	s := NewReal(DefaultConfig(), 2)
	n := b.N
	s.Inject(0, "hopper", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.Hop((ag.Node().ID() + 1) % 2)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventRoundTrip measures signal+wait pairs between two agents
// on one node (sim backend).
func BenchmarkEventRoundTrip(b *testing.B) {
	s := NewSim(Config{}, machine.SunBlade100(), 1)
	n := b.N
	s.Inject(0, "ping", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.SignalEvent("ping")
			ag.WaitEvent("pong")
		}
	})
	s.Inject(0, "pong", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.WaitEvent("ping")
			ag.SignalEvent("pong")
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventRoundTripReal measures the same signal+wait pairs on the
// goroutine backend, where each hand-off may park the waiter.
func BenchmarkEventRoundTripReal(b *testing.B) {
	s := NewReal(Config{}, 1)
	n := b.N
	s.Inject(0, "ping", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.SignalEvent("ping")
			ag.WaitEvent("pong")
		}
	})
	s.Inject(0, "pong", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.WaitEvent("ping")
			ag.SignalEvent("pong")
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkInjectSim measures agent creation throughput.
func BenchmarkInjectSim(b *testing.B) {
	s := NewSim(Config{}, machine.SunBlade100(), 1)
	n := b.N
	s.Inject(0, "spawner", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.Inject("child", func(*Agent) {})
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkNodeVarAccess measures the node-variable map path.
func BenchmarkNodeVarAccess(b *testing.B) {
	s := NewReal(Config{}, 1)
	s.Node(0).Set("x", 42)
	nd := s.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NodeVar[int](nd, "x") != 42 {
			b.Fatal("wrong value")
		}
	}
}
