package sched

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

const testTimeout = 30 * time.Second

// waitTerminal blocks until the job is terminal and returns its status.
func waitTerminal(t *testing.T, s *Scheduler, id uint64) Status {
	t.Helper()
	ch, err := s.Done(id)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-ch:
	case <-time.After(testTimeout):
		st, _ := s.Status(id)
		t.Fatalf("job %d not terminal after %v (state %s)", id, testTimeout, st.State)
	}
	st, err := s.Status(id)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestJobLifecycleDone(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Spec{Work: WorkFunc{Name: "ok", Fn: func(rt *Runtime) (any, error) {
		return 42, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != "done" || st.Attempts != 1 {
		t.Fatalf("status = %+v, want done after 1 attempt", st)
	}
	res, err := s.Result(id)
	if err != nil || res != 42 {
		t.Fatalf("Result = %v, %v; want 42", res, err)
	}
	if _, err := s.Result(id); !errors.Is(err, ErrResultConsumed) {
		t.Fatalf("second Result = %v, want ErrResultConsumed (exactly-once)", err)
	}
}

func TestRetryBudget(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var calls int
	flaky := WorkFunc{Name: "flaky", Fn: func(rt *Runtime) (any, error) {
		calls++
		if calls < 3 {
			return nil, fmt.Errorf("transient %d", calls)
		}
		return "ok", nil
	}}
	id, _ := s.Submit(Spec{Work: flaky, Retries: 3})
	st := waitTerminal(t, s, id)
	if st.State != "done" || st.Attempts != 3 {
		t.Fatalf("status = %+v, want done after 3 attempts", st)
	}

	calls = 0
	exhausted := WorkFunc{Name: "always", Fn: func(rt *Runtime) (any, error) {
		calls++
		return nil, fmt.Errorf("permanent")
	}}
	id, _ = s.Submit(Spec{Work: exhausted, Retries: 1})
	st = waitTerminal(t, s, id)
	if st.State != "failed" || st.Attempts != 2 {
		t.Fatalf("status = %+v, want failed after 2 attempts", st)
	}
	if _, err := s.Result(id); err == nil {
		t.Fatal("Result of a failed job did not error")
	}
}

// TestRetriesUseFreshNamespaces: each attempt must get its own wire job
// namespace so a half-finished attempt can never collide with its
// successor's dedup or checkpoint state.
func TestRetriesUseFreshNamespaces(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var seen []uint64
	id, _ := s.Submit(Spec{Retries: 2, Work: WorkFunc{Name: "ns", Fn: func(rt *Runtime) (any, error) {
		seen = append(seen, rt.Job)
		return nil, fmt.Errorf("again")
	}}})
	waitTerminal(t, s, id)
	if len(seen) != 3 {
		t.Fatalf("attempts = %d, want 3", len(seen))
	}
	uniq := map[uint64]bool{}
	for _, ns := range seen {
		if ns == 0 {
			t.Fatal("attempt ran in the default namespace")
		}
		uniq[ns] = true
		if ns>>8 != id {
			t.Fatalf("namespace %d does not encode job id %d", ns, id)
		}
	}
	if len(uniq) != 3 {
		t.Fatalf("namespaces %v not distinct across attempts", seen)
	}
}

func TestPriorityOrdersQueue(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	var order []string
	gate := make(chan struct{})
	started := make(chan struct{})
	blocker, _ := s.Submit(Spec{Work: WorkFunc{Name: "blocker", Fn: func(rt *Runtime) (any, error) {
		close(started)
		<-gate
		return nil, nil
	}}})
	// The blocker has the default priority, PriorityLow: until the single
	// worker has claimed it, a queued mid or high outranks it and runs first.
	<-started
	record := func(name string) Work {
		return WorkFunc{Name: name, Fn: func(rt *Runtime) (any, error) {
			mu.Lock()
			order = append(order, name)
			mu.Unlock()
			return nil, nil
		}}
	}
	// Queued behind the blocker: low first in, high last in.
	lo, _ := s.Submit(Spec{Work: record("low"), Priority: PriorityLow})
	mid, _ := s.Submit(Spec{Work: record("mid"), Priority: PriorityNormal})
	hi, _ := s.Submit(Spec{Work: record("high"), Priority: PriorityHigh})
	close(gate)
	for _, id := range []uint64{blocker, lo, mid, hi} {
		waitTerminal(t, s, id)
	}
	want := []string{"high", "mid", "low"}
	for i, name := range want {
		if order[i] != name {
			t.Fatalf("execution order %v, want %v", order, want)
		}
	}
}

func TestQueueBackpressure(t *testing.T) {
	s, err := New(Config{Workers: 1, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := make(chan struct{})
	started := make(chan struct{}, 8)
	block := WorkFunc{Name: "block", Fn: func(rt *Runtime) (any, error) {
		started <- struct{}{}
		<-gate
		return nil, nil
	}}
	ids := []uint64{}
	// One running (off the queue) + two queued fills the system at depth 2.
	id, err := s.Submit(Spec{Work: block})
	if err != nil {
		t.Fatal(err)
	}
	ids = append(ids, id)
	<-started // the single worker has popped it; the queue is empty
	for i := 0; i < 2; i++ {
		id, err := s.Submit(Spec{Work: block})
		if err != nil {
			t.Fatalf("submit %d rejected early: %v", i, err)
		}
		ids = append(ids, id)
	}
	if got := s.Metrics().Snapshot().Gauge(MetricQueueDepth); got != 2 {
		t.Fatalf("queue depth gauge = %d, want 2", got)
	}
	if _, err := s.Submit(Spec{Work: block}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit over capacity = %v, want ErrQueueFull", err)
	}
	snap := s.Metrics().Snapshot()
	if snap.Counter(MetricAdmitRejected) == 0 {
		t.Fatal("no admission rejects counted")
	}
	close(gate)
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
}

func TestCancelQueuedAndRunning(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	started := make(chan struct{})
	release := make(chan struct{})
	runner, _ := s.Submit(Spec{Work: WorkFunc{Name: "runner", Fn: func(rt *Runtime) (any, error) {
		close(started)
		<-release
		return "late", nil
	}}})
	queued, _ := s.Submit(Spec{Work: WorkFunc{Name: "queued", Fn: func(rt *Runtime) (any, error) {
		return nil, nil
	}}})
	<-started
	if err := s.Cancel(queued); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, queued)
	if st.State != "evicted" {
		t.Fatalf("cancelled queued job state = %s, want evicted", st.State)
	}
	if err := s.Cancel(runner); err != nil {
		t.Fatal(err)
	}
	close(release)
	st = waitTerminal(t, s, runner)
	if st.State != "evicted" {
		t.Fatalf("cancelled running job state = %s, want evicted", st.State)
	}
	if _, err := s.Result(runner); err == nil {
		t.Fatal("evicted job handed out a result")
	}
	// Cancelling a terminal job is a no-op, not an error.
	if err := s.Cancel(runner); err != nil {
		t.Fatalf("re-cancel errored: %v", err)
	}
}

func TestDeadlineEvictsQueuedJob(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	gate := make(chan struct{})
	blocker, _ := s.Submit(Spec{Work: WorkFunc{Name: "blocker", Fn: func(rt *Runtime) (any, error) {
		<-gate
		return nil, nil
	}}})
	doomed, _ := s.Submit(Spec{Deadline: 20 * time.Millisecond, Work: WorkFunc{Name: "doomed", Fn: func(rt *Runtime) (any, error) {
		return nil, nil
	}}})
	time.Sleep(50 * time.Millisecond) // let the deadline lapse while queued
	close(gate)
	waitTerminal(t, s, blocker)
	st := waitTerminal(t, s, doomed)
	if st.State != "evicted" {
		t.Fatalf("expired queued job state = %s, want evicted", st.State)
	}
}

func TestAttemptBudgetFollowsDeadline(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var budget time.Duration
	id, _ := s.Submit(Spec{Deadline: 500 * time.Millisecond, Work: WorkFunc{Name: "b", Fn: func(rt *Runtime) (any, error) {
		budget = rt.Timeout
		return nil, nil
	}}})
	waitTerminal(t, s, id)
	if budget <= 0 || budget > 500*time.Millisecond {
		t.Fatalf("attempt budget %v, want within the 500ms deadline", budget)
	}
}

func TestRetentionBoundsRecords(t *testing.T) {
	s, err := New(Config{Workers: 2, Retain: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	noop := WorkFunc{Name: "noop", Fn: func(rt *Runtime) (any, error) { return nil, nil }}
	var last uint64
	for i := 0; i < 16; i++ {
		id, err := s.Submit(Spec{Work: noop})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, id)
		last = id
	}
	if _, err := s.Status(1); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("oldest record still present: %v", err)
	}
	if _, err := s.Status(last); err != nil {
		t.Fatalf("newest record evicted: %v", err)
	}
	if got := len(s.Jobs()); got > 4 {
		t.Fatalf("%d records retained, want ≤ 4", got)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := s.Submit(Spec{Work: WorkFunc{Name: "x", Fn: func(rt *Runtime) (any, error) { return nil, nil }}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestPlacementRoundRobinRotates(t *testing.T) {
	p := &RoundRobin{}
	got := []int{p.Place(3), p.Place(3), p.Place(3), p.Place(3)}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin placements %v, want %v", got, want)
		}
	}
}

func TestPlacementLeastLoadedPicksIdle(t *testing.T) {
	met := newSchedMetrics(metrics.NewRegistry(), 3)
	p := &LeastLoaded{met: met}
	met.nodeLoad[0].Set(2)
	met.nodeLoad[1].Set(0)
	met.nodeLoad[2].Set(1)
	if got := p.Place(3); got != 1 {
		t.Fatalf("least-loaded = %d, want 1 (the idle PE)", got)
	}
	met.nodeLoad[1].Set(5)
	if got := p.Place(3); got != 2 {
		t.Fatalf("least-loaded = %d, want 2 after load shifted", got)
	}
}

// TestConsistentHashWalksPastOverloadedNodes pins the bounded-load walk
// to distinct-node coverage: with every node but one at the load cap,
// every key must land on the one node with headroom, even when the ring
// points immediately clockwise of the key all belong to full nodes. A
// walk that counts ring points instead of distinct nodes gives up after
// n virtual nodes and dumps such keys on their overloaded home node.
func TestConsistentHashWalksPastOverloadedNodes(t *testing.T) {
	met := newSchedMetrics(metrics.NewRegistry(), 4)
	p := &ConsistentHash{met: met}
	// cap = floor(1.25 × (30+1)/4) = 9: nodes 0-2 are full, node 3 idle.
	for i := 0; i < 3; i++ {
		met.nodeLoad[i].Set(10)
	}
	met.nodeLoad[3].Set(0)
	for key := uint64(0); key < 200; key++ {
		if got := p.PlaceKey(key, 4); got != 3 {
			t.Fatalf("PlaceKey(%d) = %d, want 3 (the only node under the load cap)", key, got)
		}
	}
	// With every node at the cap the fallback is the key's home node,
	// and it must be deterministic.
	met.nodeLoad[3].Set(10)
	for key := uint64(0); key < 20; key++ {
		a, b := p.PlaceKey(key, 4), p.PlaceKey(key, 4)
		if a != b {
			t.Fatalf("PlaceKey(%d) fallback not deterministic: %d then %d", key, a, b)
		}
	}
}

func TestLeastLoadedOnCluster(t *testing.T) {
	cl, err := wire.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 3, Placement: &LeastLoaded{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var mu sync.Mutex
	bases := map[int]int{}
	release := make(chan struct{})
	hold := WorkFunc{Name: "hold", Fn: func(rt *Runtime) (any, error) {
		mu.Lock()
		bases[rt.Base]++
		mu.Unlock()
		<-release
		return nil, nil
	}}
	ids := []uint64{}
	for i := 0; i < 3; i++ {
		id, err := s.Submit(Spec{Work: hold})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	deadline := time.Now().Add(testTimeout)
	for {
		mu.Lock()
		n := len(bases)
		mu.Unlock()
		if n == 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("least-loaded concentrated 3 concurrent jobs on %d PEs: %v", n, bases)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
}

func TestStateMetricsBalance(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	noop := WorkFunc{Name: "noop", Fn: func(rt *Runtime) (any, error) { return nil, nil }}
	boom := WorkFunc{Name: "boom", Fn: func(rt *Runtime) (any, error) { return nil, fmt.Errorf("x") }}
	for i := 0; i < 5; i++ {
		id, _ := s.Submit(Spec{Work: noop})
		waitTerminal(t, s, id)
	}
	id, _ := s.Submit(Spec{Work: boom})
	waitTerminal(t, s, id)
	snap := s.Metrics().Snapshot()
	if g := snap.Gauge(MetricJobState(StateDone)); g != 5 {
		t.Fatalf("done gauge = %d, want 5", g)
	}
	if g := snap.Gauge(MetricJobState(StateFailed)); g != 1 {
		t.Fatalf("failed gauge = %d, want 1", g)
	}
	for _, st := range []State{StateQueued, StatePlaced, StateRunning} {
		if g := snap.Gauge(MetricJobState(st)); g != 0 {
			t.Fatalf("%s gauge = %d after quiescence, want 0", st, g)
		}
	}
	if snap.Histograms[MetricE2ELatencyUS].Count != 6 {
		t.Fatalf("latency observations = %d, want 6", snap.Histograms[MetricE2ELatencyUS].Count)
	}
}

// TestPayloadRoundTripSchedStates sends the scheduler's registered
// states through the wire's payload codec — a SetVar frame in, a GetVar
// reply out — and requires them back unchanged.
func TestPayloadRoundTripSchedStates(t *testing.T) {
	cl, err := wire.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for name, v := range map[string]any{
		"carrier": &rowCarrierState{Row: 2, Vals: []int64{-3, 0, 9}, Visited: 1, Ring: []int{2, 0, 1}},
		"bpart":   &bPart{Off: 4, Cols: [][]int64{{1, -2}, {3, 4}}},
	} {
		if err := cl.SetVar(0, name, v); err != nil {
			t.Fatal(err)
		}
		got, err := cl.GetVar(0, name)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, v) {
			t.Fatalf("%s came back as %#v, want %#v", name, got, v)
		}
	}
}

func TestWireMatmulWorkOnCluster(t *testing.T) {
	cl, err := wire.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	id, err := s.Submit(Spec{Work: WireMatmul{N: 8, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != "done" {
		t.Fatalf("wirematmul status %+v", st)
	}
	res, err := s.Result(id)
	if err != nil {
		t.Fatal(err)
	}
	got := res.([][]int64)
	if len(got) != 8 {
		t.Fatalf("result has %d rows, want 8", len(got))
	}
	// Cleanup must have reclaimed the namespace and its variables.
	if n := cl.JobsTracked(); n != 0 {
		t.Fatalf("%d job namespaces still tracked after completion", n)
	}
	if v, err := cl.GetVar(0, fmt.Sprintf("j%d:B", id<<8|1)); err != nil || v != nil {
		t.Fatalf("job-prefixed node variables survived cleanup (%v, %v)", v, err)
	}
}

func TestSimWorksServeLocally(t *testing.T) {
	s, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mm := SubmitRequest{Kind: "matmul", Stage: 2, N: 64, BS: 16, P: 2}
	w1, err := mm.work()
	if err != nil {
		t.Fatal(err)
	}
	pl := SubmitRequest{Kind: "plan", Rows: 3, Cols: 4, PEs: 2, Variant: "pipeline"}
	w2, err := pl.work()
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Submit(Spec{Work: w1})
	id2, _ := s.Submit(Spec{Work: w2})
	for _, id := range []uint64{id1, id2} {
		if st := waitTerminal(t, s, id); st.State != "done" {
			t.Fatalf("sim job %d: %+v", id, st)
		}
	}
	r1, err := s.Result(id1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.(map[string]any)["seconds"].(float64) <= 0 {
		t.Fatalf("matmul stage reported no virtual time: %v", r1)
	}
	r2, err := s.Result(id2)
	if err != nil {
		t.Fatal(err)
	}
	if r2.(map[string]any)["makespan"].(float64) <= 0 {
		t.Fatalf("plan run reported no makespan: %v", r2)
	}
}
