package sim

// The kernel's rows of the regression suite (internal/bench.RegressNavp)
// and this package's go-test benchmarks of the same names share these
// bodies, so both time the same program.

// BenchProcessSwitch runs two processes that each yield n times.
func BenchProcessSwitch(n int) error {
	k := New()
	for _, name := range []string{"p0", "p1"} {
		k.Spawn(name, func(p *Proc) {
			for i := 0; i < n; i++ {
				p.Yield()
			}
		})
	}
	return k.Run()
}

// BenchEventSignalWait runs a producer that signals an event and yields
// n times beside a consumer that waits on it n times.
func BenchEventSignalWait(n int) error {
	k := New()
	ev := NewEvent("e")
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < n; i++ {
			ev.Signal()
			p.Yield()
		}
	})
	k.Spawn("consumer", func(p *Proc) {
		for i := 0; i < n; i++ {
			ev.Wait(p)
		}
	})
	return k.Run()
}
