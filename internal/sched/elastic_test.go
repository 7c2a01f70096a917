package sched

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// slowHopState drives the test behaviors below: an agent that hops
// Hops times around the ring with a Pause per step, slow enough for
// Suspend to catch it mid-flight.
type slowHopState struct {
	Hops  int
	Pause time.Duration
}

func init() {
	wire.RegisterState(&slowHopState{})
	wire.Register("sched.testSlowHop", func(ctx *wire.Ctx) wire.Verdict {
		st := ctx.State().(*slowHopState)
		if st.Pause > 0 {
			time.Sleep(st.Pause)
		}
		st.Hops--
		if st.Hops <= 0 {
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

// slowWork is a Resumer work: inject slow agents, await quiescence. Its
// Resume half only awaits — exactly what a thawed attempt needs.
type slowWork struct {
	agents int
	hops   int
	pause  time.Duration
}

func (w slowWork) Kind() string { return "testslow" }

func (w slowWork) Run(rt *Runtime) (any, error) {
	for i := 0; i < w.agents; i++ {
		node := (rt.Base + i) % rt.Cluster.Size()
		st := &slowHopState{Hops: w.hops, Pause: w.pause}
		if err := rt.Cluster.InjectJob(node, rt.Job, "sched.testSlowHop", st); err != nil {
			return nil, err
		}
	}
	return w.Resume(rt)
}

func (w slowWork) Resume(rt *Runtime) (any, error) {
	if err := rt.Cluster.WaitJob(rt.Job, rt.Timeout); err != nil {
		return nil, err
	}
	return "done", nil
}

func TestSuspendResumeRoundTrip(t *testing.T) {
	cl, err := wire.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, err := s.Submit(Spec{Work: slowWork{agents: 2, hops: 1500, pause: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, "running")
	if err := s.Suspend(id); err != nil {
		t.Fatalf("Suspend: %v", err)
	}
	waitState(t, s, id, "suspended")

	// The single worker must be free while the job is suspended — that
	// is the point of checkpoint-to-disk preemption.
	quick, err := s.Submit(Spec{Work: WorkFunc{Name: "quick", Fn: func(rt *Runtime) (any, error) { return 1, nil }}})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, quick); st.State != "done" {
		t.Fatalf("quick job %+v while other suspended, want done", st)
	}

	// Suspended is not terminal and not resumable twice.
	if err := s.Suspend(id); !errors.Is(err, ErrNotSuspendable) {
		t.Fatalf("second Suspend = %v, want ErrNotSuspendable", err)
	}

	if err := s.Resume(id); err != nil {
		t.Fatalf("Resume: %v", err)
	}
	st := waitTerminal(t, s, id)
	if st.State != "done" {
		t.Fatalf("resumed job %+v, want done", st)
	}
	if st.Attempts != 2 {
		t.Fatalf("resumed job spent %d attempts, want 2 (run + resume)", st.Attempts)
	}
	if res, err := s.Result(id); err != nil || res != "done" {
		t.Fatalf("Result = %v, %v", res, err)
	}
	snap := s.Metrics().Snapshot()
	if c := snap.Counter(MetricSuspends); c != 1 {
		t.Fatalf("%s = %d, want 1", MetricSuspends, c)
	}
	if c := snap.Counter(MetricResumes); c != 1 {
		t.Fatalf("%s = %d, want 1", MetricResumes, c)
	}
	if n := cl.JobsTracked(); n != 0 {
		t.Fatalf("%d namespaces tracked after resume completed", n)
	}
}

func TestCancelSuspendedJobReapsNamespace(t *testing.T) {
	cl, err := wire.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 1, ReapInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	id, err := s.Submit(Spec{Work: slowWork{agents: 2, hops: 4000, pause: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, "running")
	if err := s.Suspend(id); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, id, "suspended")
	if err := s.Cancel(id); err != nil {
		t.Fatal(err)
	}
	st := waitTerminal(t, s, id)
	if st.State != "evicted" {
		t.Fatalf("cancelled suspended job %+v, want evicted", st)
	}
	// The orphaned frozen namespace goes to the reaper: its agents thaw,
	// retire under the cancel mark, and the namespace is released.
	deadline := time.Now().Add(testTimeout)
	for cl.JobsTracked() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d namespaces still tracked after cancel of suspended job", cl.JobsTracked())
		}
		time.Sleep(time.Millisecond)
	}
	for s.Metrics().Snapshot().Counter(MetricDrainReaped) < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want >= 1", MetricDrainReaped, s.Metrics().Snapshot().Counter(MetricDrainReaped))
		}
		time.Sleep(time.Millisecond)
	}
}

// leakyBackend fakes a cluster whose namespace drain stays stuck for a
// configurable number of WaitJob calls — the shape of the bug where a
// DrainTimeout hit leaked the namespace forever.
type leakyBackend struct {
	reg *metrics.Registry

	mu        sync.Mutex
	waitFails map[uint64]int
	released  []uint64
	cleared   []string
}

func (f *leakyBackend) Size() int                                { return 1 }
func (f *leakyBackend) SetVar(int, string, any) error            { return nil }
func (f *leakyBackend) GetVar(int, string) (any, error)          { return nil, nil }
func (f *leakyBackend) InjectJob(int, uint64, string, any) error { return nil }
func (f *leakyBackend) CancelJob(uint64)                         {}
func (f *leakyBackend) Metrics() *metrics.Registry               { return f.reg }
func (f *leakyBackend) Alive(int) bool                           { return true }
func (f *leakyBackend) LiveNodes() []int                         { return []int{0} }
func (f *leakyBackend) DrainNode(int, time.Duration) error       { return nil }
func (f *leakyBackend) FreezeJob(uint64) error                   { return nil }
func (f *leakyBackend) ThawJob(uint64) error                     { return nil }
func (f *leakyBackend) Refresh() error                           { return nil }

func (f *leakyBackend) WaitJob(ns uint64, _ time.Duration) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.waitFails[ns] > 0 {
		f.waitFails[ns]--
		return fmt.Errorf("leaky: namespace %d not quiescent", ns)
	}
	return nil
}

func (f *leakyBackend) ReleaseJob(ns uint64) {
	f.mu.Lock()
	f.released = append(f.released, ns)
	f.mu.Unlock()
}

func (f *leakyBackend) ClearVarsPrefix(p string) {
	f.mu.Lock()
	f.cleared = append(f.cleared, p)
	f.mu.Unlock()
}

// TestReaperReclaimsTimedOutDrain is the regression test for the drain
// leak: a failed attempt whose post-cancel drain times out used to
// abandon its namespace with no retry path — counters, cancellation
// mark, and job-prefixed variables stayed tracked forever. The reaper
// must eventually drain and release it.
func TestReaperReclaimsTimedOutDrain(t *testing.T) {
	fb := &leakyBackend{
		reg: metrics.NewRegistry(),
		// First WaitJob (cleanup) and the next two reaper passes fail;
		// the third reaper pass drains.
		waitFails: map[uint64]int{namespace(1, 0): 3},
	}
	s, err := New(Config{
		Cluster:      fb,
		Workers:      1,
		ReapInterval: 10 * time.Millisecond,
		DrainTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	boom := WorkFunc{Name: "boom", Fn: func(rt *Runtime) (any, error) {
		return nil, fmt.Errorf("attempt fails; drain will wedge")
	}}
	id, err := s.Submit(Spec{Work: boom})
	if err != nil {
		t.Fatal(err)
	}
	if st := waitTerminal(t, s, id); st.State != "failed" {
		t.Fatalf("job %+v, want failed", st)
	}
	ns := namespace(id, 0)

	deadline := time.Now().Add(testTimeout)
	for {
		fb.mu.Lock()
		released := len(fb.released) > 0 && fb.released[0] == ns
		cleared := len(fb.cleared) > 0 && fb.cleared[0] == jobPrefix(ns)
		fb.mu.Unlock()
		if released && cleared {
			break
		}
		if time.Now().After(deadline) {
			fb.mu.Lock()
			t.Fatalf("namespace %d never reaped (released %v, cleared %v)", ns, fb.released, fb.cleared)
		}
		time.Sleep(time.Millisecond)
	}
	snap := s.Metrics().Snapshot()
	if c := snap.Counter(MetricDrainReaped); c != 1 {
		t.Fatalf("%s = %d, want 1", MetricDrainReaped, c)
	}
	waitDeadline := time.Now().Add(testTimeout)
	for s.Metrics().Snapshot().Gauge(MetricDrainPending) != 0 {
		if time.Now().After(waitDeadline) {
			t.Fatalf("%s = %d, want 0 after reap", MetricDrainPending, s.Metrics().Snapshot().Gauge(MetricDrainPending))
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRefreshWidensPlacement covers scheduler adoption of cluster
// growth: after Refresh, new placements may land on the added range and
// the load-gauge table covers it.
func TestRefreshWidensPlacement(t *testing.T) {
	cl, err := wire.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := len(s.met.loads()); got != 2 {
		t.Fatalf("load gauges = %d, want 2", got)
	}
	if err := s.Refresh(); err != nil {
		t.Fatal(err)
	}
	s.mu.Lock()
	n := s.nodes
	s.mu.Unlock()
	if n != cl.Size() {
		t.Fatalf("nodes = %d after Refresh, want %d", n, cl.Size())
	}
}
