package navp

import (
	"bytes"
	"testing"

	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// pingPong is a two-agent program exercising every instrumented
// primitive: hops (remote and free local), injects, waits, signals.
func pingPong(s *System) {
	payload, ping, pong := s.Var("payload"), s.Event("ping"), s.Event("pong")
	s.Inject(0, "ping", func(ag *Agent) {
		ag.Set(payload, 1, 64)
		for i := 0; i < 3; i++ {
			ag.Hop(1)
			ag.Signal(ping)
			ag.Wait(pong)
			ag.Hop(0)
		}
		ag.Hop(0) // free local hop
		ag.Inject("child", func(child *Agent) {
			child.Compute(1e3, nil)
		})
	})
	s.Inject(1, "pong", func(ag *Agent) {
		for i := 0; i < 3; i++ {
			ag.Wait(ping)
			ag.Signal(pong)
		}
	})
}

func runWithRegistry(t *testing.T) *metrics.Registry {
	t.Helper()
	reg := metrics.NewRegistry()
	s := NewSim(DefaultConfig(), machine.SunBlade100(), 2)
	s.SetMetrics(reg)
	if s.Metrics() != reg {
		t.Fatal("Metrics() did not return the installed registry")
	}
	pingPong(s)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return reg
}

func TestSimMetricCounts(t *testing.T) {
	s := runWithRegistry(t).Snapshot()
	// ping: 3×(Hop(1)+Hop(0)) + 1 free local = 7 hops; pong: none.
	if got := s.Counter(MetricHops); got != 7 {
		t.Fatalf("hops = %d, want 7", got)
	}
	// Two staged + one in-program child.
	if got := s.Counter(MetricInjects); got != 3 {
		t.Fatalf("injects = %d, want 3", got)
	}
	if s.Counter(MetricWaits) != 6 || s.Counter(MetricSignals) != 6 {
		t.Fatalf("waits/signals = %d/%d, want 6/6",
			s.Counter(MetricWaits), s.Counter(MetricSignals))
	}
	if s.Counter(sim.MetricEventsDispatched) <= 0 {
		t.Fatal("kernel dispatched nothing")
	}
	if s.Gauge(sim.MetricTimeHorizonUS) <= 0 {
		t.Fatal("virtual-time horizon never advanced")
	}
}

// TestSimMetricsDeterministic runs the same program twice on fresh
// systems and demands byte-identical registry snapshots — the property
// that makes a metrics snapshot a regression artifact, not just a gauge.
func TestSimMetricsDeterministic(t *testing.T) {
	var runs [2]bytes.Buffer
	for i := range runs {
		if err := runWithRegistry(t).Snapshot().WriteJSON(&runs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if runs[0].String() != runs[1].String() {
		t.Fatalf("sim metrics snapshots differ across runs:\n%s\n%s",
			runs[0].String(), runs[1].String())
	}
}

// TestRealBackendCountsMatchSim checks the NavP-layer counts are
// engine-independent: the same program on the goroutine backend reports
// the same hop/inject/wait/signal totals as the simulation.
func TestRealBackendCountsMatchSim(t *testing.T) {
	reg := metrics.NewRegistry()
	s := NewReal(DefaultConfig(), 2)
	s.SetMetrics(reg)
	pingPong(s)
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot()
	want := runWithRegistry(t).Snapshot()
	for _, name := range []string{MetricHops, MetricInjects, MetricWaits, MetricSignals} {
		if got.Counter(name) != want.Counter(name) {
			t.Errorf("%s: real %d, sim %d", name, got.Counter(name), want.Counter(name))
		}
	}
}
