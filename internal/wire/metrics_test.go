package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/metrics"
)

// TestDedupHighWaterEviction drives retirements through a nodeState with
// a tiny retain budget and checks the table stays bounded while the
// youngest entries — the only ones duplicates can still target — survive.
func TestDedupHighWaterEviction(t *testing.T) {
	const retain = 4
	reg := metrics.NewRegistry()
	ns := newNodeState(0, newWireMetrics(reg), retain)
	for i := uint64(1); i <= 100; i++ {
		msg := &agentMsg{ID: i, Hop: 3, Behavior: "ring"}
		if dup, _, err := ns.accept(msg); err != nil || dup {
			t.Fatalf("accept %d: dup=%v err=%v", i, dup, err)
		}
		if !ns.ackDelivered(i, 3) {
			t.Fatalf("ackDelivered %d refused", i)
		}
	}
	if got := ns.dedupSize(); got != retain {
		t.Fatalf("dedup size = %d, want retain = %d", got, retain)
	}
	s := reg.Snapshot()
	if s.Gauge(MetricDedupSize) != retain {
		t.Fatalf("dedup gauge = %d, want %d", s.Gauge(MetricDedupSize), retain)
	}
	if s.Counter(MetricDedupEvicted) != 100-retain {
		t.Fatalf("evicted = %d, want %d", s.Counter(MetricDedupEvicted), 100-retain)
	}
	// Youngest entries still dedup; the agent behind them stays idempotent.
	if dup, _, _ := ns.accept(&agentMsg{ID: 100, Hop: 3, Behavior: "ring"}); !dup {
		t.Fatal("duplicate of a retained entry was re-accepted")
	}
}

// TestDedupEvictionSkipsRevisitedAgents checks the hop guard: when an
// agent is re-accepted at a higher hop after its entry was queued, the
// stale queue entry must not evict the newer table entry.
func TestDedupEvictionSkipsRevisitedAgents(t *testing.T) {
	const retain = 2
	ns := newNodeState(0, newWireMetrics(nil), retain)
	// Agent 7 visits at hop 1, leaves (entry queued), then revisits at hop 5.
	ns.accept(&agentMsg{ID: 7, Hop: 1, Behavior: "ring"})
	ns.ackDelivered(7, 1)
	ns.accept(&agentMsg{ID: 7, Hop: 5, Behavior: "ring"})
	// Push enough unrelated retirements to drain agent 7's stale queue entry.
	for i := uint64(100); i < 110; i++ {
		ns.accept(&agentMsg{ID: i, Hop: 2, Behavior: "ring"})
		ns.ackDelivered(i, 2)
	}
	// The revisit's entry must have survived the stale eviction.
	if dup, _, _ := ns.accept(&agentMsg{ID: 7, Hop: 5, Behavior: "ring"}); !dup {
		t.Fatal("revisited agent's dedup entry was evicted by its stale queue entry")
	}
}

// TestClusterMetricsSnapshot runs a real workload and checks the core
// counters and gauges land where the protocol says they must.
func TestClusterMetricsSnapshot(t *testing.T) {
	reg := metrics.NewRegistry()
	cl, err := NewClusterOpts(3, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	inject(t, cl, 0, "ring", &ringState{Laps: 2})
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	s := reg.Snapshot()
	if cl.Metrics() != reg {
		t.Fatal("Cluster.Metrics did not return the supplied registry")
	}
	// Two laps over three nodes = 6 hops, 5 of them remote (node 2 → 0
	// wraps are remote too; only none are local here since successor ≠ self).
	if got := s.Counter(MetricFramesAcked); got < 5 {
		t.Fatalf("frames acked = %d, want ≥ 5", got)
	}
	if s.Counter(MetricFramesSent) < s.Counter(MetricFramesAcked) {
		t.Fatalf("sent %d < acked %d", s.Counter(MetricFramesSent), s.Counter(MetricFramesAcked))
	}
	if s.Counter(MetricBytesSent) <= 0 {
		t.Fatal("no bytes counted")
	}
	if s.Counter(MetricAgentsInjected) != 1 || s.Counter(MetricAgentsCompleted) != 1 {
		t.Fatalf("injected/completed = %d/%d, want 1/1",
			s.Counter(MetricAgentsInjected), s.Counter(MetricAgentsCompleted))
	}
	// Quiescent cluster: no agent may still hold a checkpoint.
	if got := s.Gauge(MetricCheckpoints); got != 0 {
		t.Fatalf("checkpoint gauge = %d after Wait, want 0", got)
	}
	if h, ok := s.Histograms[MetricAckLatencyUS]; !ok || h.Count < 5 {
		t.Fatalf("ack latency histogram missing or short: %+v", h)
	}
	// The client side of the same registry: the inject and at least two
	// snapshot rounds of three members each went over the control
	// connections, and none is still in flight.
	if h, ok := s.Histograms[MetricCtlRoundTripUS]; !ok || h.Count < 7 {
		t.Fatalf("control round-trip histogram missing or short: %+v", h)
	}
	if got := s.Gauge(MetricCtlInflight); got != 0 {
		t.Fatalf("control round trips in flight = %d after Wait, want 0", got)
	}
	if got := s.Counter(MetricWaitRounds); got < 2 {
		t.Fatalf("complete snapshot rounds = %d, want ≥ 2 (the verdict needs two)", got)
	}
}

// TestDebugEndpoint serves the debug mux and fetches a live metrics
// snapshot over HTTP.
func TestDebugEndpoint(t *testing.T) {
	cl := newCluster(t, 2)
	addr, stop, err := ServeDebug("127.0.0.1:0", cl.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stop() })
	inject(t, cl, 0, "ring", &ringState{Laps: 1})
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/metrics", addr))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var snap metrics.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/metrics is not valid JSON: %v\n%s", err, body)
	}
	if snap.Counter(MetricFramesAcked) < 1 {
		t.Fatalf("no acked frames in HTTP snapshot: %s", body)
	}
	// pprof index answers too.
	resp2, err := client.Get(fmt.Sprintf("http://%s/debug/pprof/", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status = %d", resp2.StatusCode)
	}
}

// TestDroppedErrorsCounted overflows the 1-slot error channel of a
// single-node cluster and checks the overflow leaves a fingerprint.
func TestDroppedErrorsCounted(t *testing.T) {
	reg := metrics.NewRegistry()
	cl, err := NewClusterOpts(1, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	d := cl.hosts[0].incarnation()
	for i := 0; i < 3; i++ {
		d.fail(fmt.Errorf("synthetic error %d", i))
	}
	// Channel capacity is the cluster size (1): two of three must drop.
	if got := reg.Snapshot().Counter(MetricErrorsDropped); got != 2 {
		t.Fatalf("dropped errors = %d, want 2", got)
	}
}
