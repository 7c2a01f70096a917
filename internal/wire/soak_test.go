package wire

import (
	"testing"
	"time"

	"repro/internal/fault"
)

// TestSoakWireLeaks is the leak regression for the long-lived cluster:
// waves of agents hop thousands of times under drop/dup chaos while the
// dedup tables run a deliberately small retention budget. The test then
// asserts the observable state a leak would inflate — dedup entries,
// inbound connections, checkpoints — stays bounded, and that eviction
// never broke a computation. Run it under -race to cover the
// deregistration and retirement paths' locking.
func TestSoakWireLeaks(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	const (
		nodes  = 4
		retain = 64
		waves  = 5
		agents = 40 // per wave
		laps   = 4  // ring laps per agent → laps*nodes hops each
	)
	cl, err := NewClusterOpts(nodes, Options{
		Fault: &fault.Plan{Seed: 23, Drop: 0.02, Dup: 0.2, RetryTimeout: 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for _, ns := range states(cl) {
		ns.mu.Lock()
		ns.retain = retain
		ns.mu.Unlock()
	}

	for wave := 0; wave < waves; wave++ {
		for i := 0; i < agents; i++ {
			inject(t, cl, i%nodes, "ring", &ringState{Laps: laps})
		}
		if err := cl.Wait(60 * time.Second); err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
	}

	s := cl.Metrics().Snapshot()
	totalAgents := int64(waves * agents)
	// Each ring agent runs laps*nodes steps and finishes on the last,
	// so it crosses the wire laps*nodes-1 times.
	wantHops := totalAgents * (laps*nodes - 1)
	if got := s.Counter(MetricFramesAcked); got < wantHops {
		t.Fatalf("acked %d frames, want ≥ %d (the workload really ran)", got, wantHops)
	}
	if s.Counter(MetricAgentsCompleted) != totalAgents {
		t.Fatalf("completed %d agents, want %d", s.Counter(MetricAgentsCompleted), totalAgents)
	}
	// The leak assertions. Each node may hold at most its retention
	// budget of retired entries plus the (empty now) live set; the gauge
	// is the cluster-wide sum.
	if got, max := s.Gauge(MetricDedupSize), int64(nodes*retain); got > max {
		t.Fatalf("dedup gauge = %d after quiescence, want ≤ %d: lastHop is leaking", got, max)
	}
	for i := 0; i < nodes; i++ {
		if got := states(cl)[i].dedupSize(); got > retain {
			t.Fatalf("node %d holds %d dedup entries, want ≤ %d", i, got, retain)
		}
	}
	if got := s.Counter(MetricDedupEvicted); got == 0 {
		t.Fatal("no evictions despite thousands of retirements: the high-water scheme is dead code")
	}
	// Quiescent cluster: no checkpoints, and only the long-lived daemon
	// links (≤ one inbound conn per ordered node pair, plus the control
	// connections) may remain registered.
	if got := s.Gauge(MetricCheckpoints); got != 0 {
		t.Fatalf("checkpoint gauge = %d after quiescence, want 0", got)
	}
	if got, max := s.Gauge(MetricInboundConns), int64(nodes*(nodes+2)); got > max {
		t.Fatalf("inbound-conn gauge = %d, want ≤ %d: handlers are not deregistering", got, max)
	}
	t.Logf("soak: %d agents, %d acked frames, %d retried, %d dup-dropped entries evicted, dedup=%d inbound=%d",
		totalAgents, s.Counter(MetricFramesAcked), s.Counter(MetricFramesRetried),
		s.Counter(MetricDedupEvicted), s.Gauge(MetricDedupSize), s.Gauge(MetricInboundConns))
}
