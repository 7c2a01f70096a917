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
	return s.Run()
}
