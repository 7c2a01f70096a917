package navp

// The goroutine backend's rows of the regression suite
// (internal/bench.RegressNavp) and this package's go-test benchmarks of
// the same names share these bodies, so both time the same program.

// BenchHops runs one agent hopping n times between the two PEs of a
// goroutine-backed system, so every hop crosses PEs.
func BenchHops(n int) error {
	s := NewReal(Config{}, 2)
	s.Inject(0, "hopper", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ag.Hop(1 - ag.Node().ID())
		}
	})
	return s.Run()
}

// BenchEventRoundTrips runs n signal/wait round trips between two agents
// on one PE of a goroutine-backed system.
func BenchEventRoundTrips(n int) error {
	s := NewReal(Config{}, 1)
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
	return s.Run()
}

// eventFanWidth is the number of distinct events BenchEventFan cycles
// through: as many as paper-fine's Phase2D has EP events (32³).
const eventFanWidth = 32 * 32 * 32

// BenchEventFan runs n signal/wait pairs of one agent on one PE of a
// goroutine-backed system, each pair on the next of eventFanWidth
// distinct events, so every pair lands on an event the loop has not
// touched since its last lap, as Phase2D's EP:i:j:k events do.
func BenchEventFan(n int) error {
	s := NewReal(Config{}, 1)
	fan := make([]Event, min(n, eventFanWidth))
	for i := range fan {
		fan[i] = s.Event("fan")
	}
	s.Inject(0, "fanner", func(ag *Agent) {
		for i := 0; i < n; i++ {
			ev := fan[i%len(fan)]
			ag.Signal(ev)
			ag.Wait(ev)
		}
	})
	return s.Run()
}
