package sched

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

const testTimeout = 30 * time.Second

// newTestScheduler starts a scheduler on a one-member in-process wire
// cluster, so even a test of pure scheduling runs the serving path. The
// test's cleanup closes both.
func newTestScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	cl, err := wire.NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	cfg.Cluster = cl
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

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
	s := newTestScheduler(t, Config{Workers: 1})
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
	s := newTestScheduler(t, Config{Workers: 1})
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
	s := newTestScheduler(t, Config{Workers: 1})
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

// TestLifetimeAttemptsStayInJobNamespace: every attempt a job ever
// makes, across suspend/resume cycles, mints a namespace inside the
// job's own, and a job past its lifetime attempt budget fails instead
// of minting one that carries into the next job's id.
func TestLifetimeAttemptsStayInJobNamespace(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	var (
		mu   sync.Mutex
		seen []uint64
	)
	id, err := s.Submit(Spec{Work: WorkFunc{Name: "freezes", Fn: func(rt *Runtime) (any, error) {
		mu.Lock()
		seen = append(seen, rt.Job)
		mu.Unlock()
		return nil, wire.ErrJobFrozen
	}}})
	if err != nil {
		t.Fatal(err)
	}
	// The work reports its namespace frozen, so each attempt parks the
	// job suspended; Resume requeues it for the next attempt.
	for resumes := 0; ; resumes++ {
		st := waitState(t, s, id, "suspended", "failed")
		if st.State == "failed" {
			break
		}
		if resumes == 256 {
			t.Fatalf("job still suspended after %d resumes: %+v", resumes, st)
		}
		if err := s.Resume(id); err != nil {
			t.Fatalf("resume %d: %v", resumes+1, err)
		}
	}
	st, _ := s.Status(id)
	if !strings.Contains(st.Error, "attempt budget exhausted") {
		t.Fatalf("job %+v, want failed with the attempt budget exhausted", st)
	}
	mu.Lock()
	defer mu.Unlock()
	uniq := map[uint64]bool{}
	for _, ns := range seen {
		if ns>>8 != id || ns&0xff == 0 {
			t.Fatalf("attempt %d ran in namespace %#x, outside job %d's", len(uniq)+1, ns, id)
		}
		uniq[ns] = true
	}
	if len(seen) != maxAttempts || len(uniq) != maxAttempts {
		t.Fatalf("%d attempts in %d namespaces, want %d distinct", len(seen), len(uniq), maxAttempts)
	}
}

// waitState polls until the job is in one of states and returns its
// status.
func waitState(t *testing.T, s *Scheduler, id uint64, states ...string) Status {
	t.Helper()
	deadline := time.Now().Add(testTimeout)
	for {
		st, err := s.Status(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range states {
			if st.State == want {
				return st
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %d in state %s after %v, want one of %v", id, st.State, testTimeout, states)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestNewRequiresCluster: a scheduler without a cluster is refused
// before any of its goroutines starts.
func TestNewRequiresCluster(t *testing.T) {
	before := schedGoroutines()
	s, err := New(Config{})
	if err == nil {
		s.Close()
		t.Fatal("New without a cluster succeeded")
	}
	if s != nil {
		t.Fatalf("New without a cluster returned a scheduler beside %v", err)
	}
	if after := schedGoroutines(); after > before {
		t.Fatalf("%d scheduler goroutines after the refused New, %d before", after, before)
	}
}

// schedGoroutines counts the goroutines running a scheduler's worker or
// reaper.
func schedGoroutines() int {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	count := 0
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "sched.(*Scheduler).worker") || strings.Contains(g, "sched.(*Scheduler).reaper") {
			count++
		}
	}
	return count
}

func TestPriorityOrdersQueue(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 16})
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
	s := newTestScheduler(t, Config{Workers: 1, QueueDepth: 2})
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
	s := newTestScheduler(t, Config{Workers: 1})
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
	s := newTestScheduler(t, Config{Workers: 1})
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
	s := newTestScheduler(t, Config{Workers: 1})
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
	s := newTestScheduler(t, Config{Workers: 2})
	noop := WorkFunc{Name: "noop", Fn: func(rt *Runtime) (any, error) { return nil, nil }}
	var last uint64
	for i := 0; i < retain+12; i++ {
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
	// Jobs lists exactly the retained records, in submission order.
	var ids []uint64
	for _, st := range s.Jobs() {
		ids = append(ids, st.ID)
	}
	var want []uint64
	for id := last - retain + 1; id <= last; id++ {
		want = append(want, id)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Fatalf("Jobs() ids %v, want the retained %v", ids, want)
	}
}

func TestSubmitAfterCloseFails(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 1})
	s.Close()
	if _, err := s.Submit(Spec{Work: WorkFunc{Name: "x", Fn: func(rt *Runtime) (any, error) { return nil, nil }}}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
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

// TestConsistentHashSpreadsSmallKeys pins the key hash to its own
// domain: job ids are small integers, and hashing them with the same
// mixer as the virtual-node points node<<20|rep put every id below
// Replicas exactly on one of node 0's points, so an unloaded ring sent
// nearly every job to node 0.
func TestConsistentHashSpreadsSmallKeys(t *testing.T) {
	p, q := &ConsistentHash{}, &ConsistentHash{}
	nodes := map[int]bool{}
	for key := uint64(1); key <= 16; key++ {
		got := p.PlaceKey(key, 8)
		if again := q.PlaceKey(key, 8); again != got {
			t.Fatalf("PlaceKey(%d) not deterministic: %d then %d", key, got, again)
		}
		nodes[got] = true
	}
	if len(nodes) < 6 {
		t.Fatalf("job ids 1..16 placed on %d of 8 nodes (%v), want at least 6", len(nodes), nodes)
	}
}

// TestPlacementSpreadsConcurrentJobs checks the default placement's
// load bound: three jobs held running at once on three nodes anchor on
// three different bases, whatever their keys' home nodes.
func TestPlacementSpreadsConcurrentJobs(t *testing.T) {
	cl, err := wire.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 3})
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
			t.Fatalf("placement concentrated 3 concurrent jobs on %d PEs: %v", n, bases)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	for _, id := range ids {
		waitTerminal(t, s, id)
	}
}

func TestStateMetricsBalance(t *testing.T) {
	s := newTestScheduler(t, Config{Workers: 2})
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
		"carrier": &rowCarrierState{Row: 2, Vals: []int64{-3, 0, 9}, Visited: 1, Ring: []int{2, 0, 1}, C: []int64{0, 0, -27}},
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

// countingBackend counts the control calls made through it and keeps
// the ring of every carrier injected.
type countingBackend struct {
	Backend
	mu    sync.Mutex
	calls map[string]int
	rings map[int][]int // row → the ring its carrier was injected with
}

func (c *countingBackend) count(op string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.calls[op]++
}

func (c *countingBackend) SetVar(node int, name string, v any) error {
	c.count("SetVar")
	return c.Backend.SetVar(node, name, v)
}

func (c *countingBackend) GetVar(node int, name string) (any, error) {
	c.count("GetVar")
	return c.Backend.GetVar(node, name)
}

func (c *countingBackend) InjectJob(node int, job uint64, behavior string, state any) error {
	c.count("InjectJob")
	if st, ok := state.(*rowCarrierState); ok {
		c.mu.Lock()
		c.rings[st.Row] = append([]int(nil), st.Ring...)
		c.mu.Unlock()
	}
	return c.Backend.InjectJob(node, job, behavior, state)
}

func (c *countingBackend) WaitJob(job uint64, timeout time.Duration) error {
	c.count("WaitJob")
	return c.Backend.WaitJob(job, timeout)
}

// drainedBackend is a countingBackend whose placeable set excludes
// some members, as an elastic cluster's does after a drain.
type drainedBackend struct {
	*countingBackend
	live []int
}

func (d drainedBackend) LiveNodes() []int { return d.live }

func (d drainedBackend) DrainNode(int, time.Duration) error {
	return errors.New("drainedBackend: not supported")
}

// TestWireMatmulCallShape pins the control calls of one wirematmul
// attempt: one SetVar per strip, one InjectJob per carrier, one WaitJob
// and one GetVar per row, because each carrier deposits its whole row of
// C once, on the last PE of its ring, and nowhere else.
func TestWireMatmulCallShape(t *testing.T) {
	cl, err := wire.NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for k, tc := range []struct {
		name    string
		n, base int
		live    []int // nil: all four members
		start0  int   // the node row 0's carrier starts on
	}{
		{"n16", 16, 1, nil, 1},
		{"fewer rows than PEs", 2, 3, nil, 3},
		// Base 2 has been drained: the rotation falls back to index
		// 2 % 3 of the live set.
		{"drained base", 6, 2, []int{0, 1, 3}, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cb := &countingBackend{Backend: cl, calls: map[string]int{}, rings: map[int][]int{}}
			var be Backend = cb
			pes := 4
			if tc.live != nil {
				be, pes = drainedBackend{cb, tc.live}, len(tc.live)
			}
			rt := &Runtime{Cluster: be, Job: uint64(1000 + k), Base: tc.base, Timeout: testTimeout}
			defer func() {
				cl.ReleaseJob(rt.Job)
				cl.ClearVarsPrefix(rt.Prefix())
			}()
			res, err := WireMatmul{N: tc.n, Seed: 5}.Run(rt)
			if err != nil {
				t.Fatal(err)
			}
			if got := res.([][]int64); len(got) != tc.n {
				t.Fatalf("result has %d rows, want %d", len(got), tc.n)
			}
			want := map[string]int{"SetVar": pes, "InjectJob": tc.n, "WaitJob": 1, "GetVar": tc.n}
			if !reflect.DeepEqual(cb.calls, want) {
				t.Fatalf("control calls %v, want %v", cb.calls, want)
			}
			if r := cb.rings[0]; len(r) != pes || r[0] != tc.start0 {
				t.Fatalf("row 0 injected with ring %v, want %d PEs starting at %d", r, pes, tc.start0)
			}
			for i := 0; i < tc.n; i++ {
				ring := cb.rings[i]
				end := ring[len(ring)-1]
				key := fmt.Sprintf("%sC:%d", rt.Prefix(), i)
				for node := 0; node < 4; node++ {
					v, err := cl.GetVar(node, key)
					if err != nil {
						t.Fatal(err)
					}
					if (v != nil) != (node == end) {
						t.Fatalf("%s on node %d is %v; want it only on %d, the end of ring %v", key, node, v, end, ring)
					}
				}
			}
		})
	}
}
