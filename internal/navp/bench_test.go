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
	payload := s.Var("payload")
	s.Inject(0, "hopper", func(ag *Agent) {
		ag.Set(payload, nil, 1024)
		for i := 0; i < n; i++ {
			ag.Hop((ag.Node().ID() + 1) % 2)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHopReal measures a cross-PE hop on the goroutine backend: a
// yield to the PE's loop, an inbox hand-off and a wake of the other
// PE's loop.
func BenchmarkHopReal(b *testing.B) {
	if err := BenchHops(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventRoundTrip measures signal+wait pairs between two agents
// on one node (sim backend).
func BenchmarkEventRoundTrip(b *testing.B) {
	s := NewSim(Config{}, machine.SunBlade100(), 1)
	n := b.N
	ping, pong := s.Event("ping"), s.Event("pong")
	s.Inject(0, "ping", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.Signal(ping)
			ag.Wait(pong)
		}
	})
	s.Inject(0, "pong", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.Wait(ping)
			ag.Signal(pong)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventRoundTripReal measures the same signal+wait pairs on the
// goroutine backend, where each hand-off parks the waiter on its event
// and queues it on the signaler's loop.
func BenchmarkEventRoundTripReal(b *testing.B) {
	if err := BenchEventRoundTrips(b.N); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventFanReal measures signal/wait pairs of one agent on the
// goroutine backend, each on the next of eventFanWidth distinct events:
// the per-event cost that BenchmarkEventRoundTripReal, cycling two
// events, does not show.
func BenchmarkEventFanReal(b *testing.B) {
	if err := BenchEventFan(b.N); err != nil {
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

// BenchmarkNodeVarAccess measures a typed node-variable read.
func BenchmarkNodeVarAccess(b *testing.B) {
	s := NewReal(Config{}, 1)
	x := s.Var("x")
	s.Node(0).Set(x, 42)
	nd := s.Node(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NodeVar[int](nd, x) != 42 {
			b.Fatal("wrong value")
		}
	}
}
