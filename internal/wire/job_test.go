package wire

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// slowRelayState drives the job-namespace tests: an agent that hops
// around the ring a fixed number of times, optionally pausing between
// hops so a test can observe the cluster mid-flight.
type slowRelayState struct {
	Hops  int
	Pause time.Duration
	Key   string
}

func init() {
	RegisterState(&slowRelayState{})
	Register("jobRelay", func(ctx *Ctx) Verdict {
		st := ctx.State().(*slowRelayState)
		if st.Pause > 0 {
			time.Sleep(st.Pause)
		}
		if st.Key != "" {
			ctx.Set(fmt.Sprintf("%s@%d", st.Key, ctx.NodeID()), ctx.Job())
		}
		st.Hops--
		if st.Hops <= 0 {
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

func TestWaitJobIsolatesTenants(t *testing.T) {
	cl, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	// Tenant 7: quick. Tenant 9: slow enough to still be in flight when
	// tenant 7 drains.
	if err := cl.InjectJob(0, 7, "jobRelay", &slowRelayState{Hops: 3}); err != nil {
		t.Fatal(err)
	}
	if err := cl.InjectJob(1, 9, "jobRelay", &slowRelayState{Hops: 20, Pause: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := cl.WaitJob(7, chaosTimeout); err != nil {
		t.Fatalf("quick tenant did not drain: %v", err)
	}
	// The slow tenant needs ≥400ms; if WaitJob(7) waited for it, the
	// elapsed time gives it away.
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("WaitJob(7) took %v — it waited for the other tenant", elapsed)
	}
	c9 := jobCounters(t, cl.RemoteCluster, 9)
	if c9.Created == c9.Finished {
		t.Fatal("slow tenant already finished; the isolation check proved nothing")
	}
	if err := cl.WaitJob(9, chaosTimeout); err != nil {
		t.Fatalf("slow tenant never drained: %v", err)
	}
	// Job IDs ride along on every hop: the behavior recorded its own
	// namespace at each visited node.
	cl.InjectJob(0, 11, "jobRelay", &slowRelayState{Hops: 3, Key: "seen"})
	if err := cl.WaitJob(11, chaosTimeout); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < 3; node++ {
		if got := getVar(t, cl, node, fmt.Sprintf("seen@%d", node)); got != uint64(11) {
			t.Fatalf("node %d saw job %v, want 11", node, got)
		}
	}
}

func TestWaitJobRejectsDefaultNamespace(t *testing.T) {
	cl, err := NewCluster(1)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.WaitJob(0, time.Second); err == nil {
		t.Fatal("WaitJob(0) accepted the default namespace")
	}
	if err := cl.InjectJob(0, 0, "jobRelay", &slowRelayState{Hops: 1}); err == nil {
		t.Fatal("InjectJob(0) accepted the default namespace")
	}
}

func TestCancelJobDrainsInFlightAgents(t *testing.T) {
	cl, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Long-running agents: 1000 hops with pauses would run for ~20s
	// uncancelled.
	const job = 42
	for i := 0; i < 6; i++ {
		if err := cl.InjectJob(i%3, job, "jobRelay", &slowRelayState{Hops: 1000, Pause: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(30 * time.Millisecond) // let them get going
	cl.CancelJob(job)
	start := time.Now()
	if err := cl.WaitJob(job, chaosTimeout); err != nil {
		t.Fatalf("cancelled job never drained: %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("drain after cancel took implausibly long")
	}
	c := jobCounters(t, cl.RemoteCluster, job)
	if c.Created != c.Finished || c.Sent != c.Received {
		t.Fatalf("drained namespace imbalanced: %+v", c)
	}
	// Quiescent: no checkpoints may remain anywhere.
	for i, ns := range states(cl) {
		if p := ns.pendingCheckpoints(); p != 0 {
			t.Fatalf("node %d still holds %d checkpoints after cancel drain", i, p)
		}
	}
}

func TestCancelledJobSurvivesDaemonKill(t *testing.T) {
	// The regression pinned by this test: a killed daemon's checkpoint
	// replay dispatches agents of a cancelled job. Retiring a replayed
	// agent locally would double-count finished when its pre-crash hop
	// had already been delivered; the replay must instead re-send and
	// let the duplicate-ack settle ownership. Symptom before the fix: a
	// permanently imbalanced namespace that never drains.
	plan := &fault.Plan{Seed: 271, RetryTimeout: 0.1, Kills: []fault.Kill{
		{Node: 0, AfterArrivals: 8},
		{Node: 1, AfterArrivals: 12},
	}}
	cl, err := NewClusterOpts(2, Options{Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	const job = 5
	for i := 0; i < 8; i++ {
		// The early agents are already hopping, so a kill can land on (or
		// just before) a later injection.
		injectUnderKills(t, cl, i%2, job, "jobRelay", &slowRelayState{Hops: 40, Pause: time.Millisecond})
	}
	time.Sleep(20 * time.Millisecond) // let hops (and the kills) happen
	cl.CancelJob(job)
	if err := cl.WaitJob(job, chaosTimeout); err != nil {
		t.Fatalf("cancelled job never drained across daemon kills: %v", err)
	}
	cl.ReleaseJob(job)
	if n := cl.JobsTracked(); n != 0 {
		t.Fatalf("%d namespaces still tracked after release", n)
	}
}

func TestReleaseJobBoundsTrackedState(t *testing.T) {
	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	for job := uint64(1); job <= 20; job++ {
		if err := cl.InjectJob(0, job, "jobRelay", &slowRelayState{Hops: 4}); err != nil {
			t.Fatal(err)
		}
		if err := cl.WaitJob(job, chaosTimeout); err != nil {
			t.Fatal(err)
		}
		cl.ReleaseJob(job)
	}
	if n := cl.JobsTracked(); n != 0 {
		t.Fatalf("%d job namespaces tracked after releasing all 20", n)
	}
	if g := cl.Metrics().Snapshot().Gauge(MetricJobsTracked); g != 0 {
		t.Fatalf("%s gauge = %d after releasing all jobs", MetricJobsTracked, g)
	}
}

func TestClearVarsPrefix(t *testing.T) {
	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	setVar(t, cl, 0, "j5:B", 1)
	setVar(t, cl, 0, "j5:C:0", 2)
	setVar(t, cl, 1, "j5:B", 3)
	setVar(t, cl, 0, "j6:B", 4)
	setVar(t, cl, 1, "keep", 5)
	cl.ClearVarsPrefix("j5:")
	for node, name := range map[int]string{0: "j5:B", 1: "j5:B"} {
		if v := getVar(t, cl, node, name); v != nil {
			t.Fatalf("node %d still has %s = %v", node, name, v)
		}
	}
	if getVar(t, cl, 0, "j5:C:0") != nil {
		t.Fatal("prefixed row survived the clear")
	}
	if getVar(t, cl, 0, "j6:B") != 4 || getVar(t, cl, 1, "keep") != 5 {
		t.Fatal("clear removed variables outside the prefix")
	}
}

func TestCloseIdempotentAndConcurrent(t *testing.T) {
	cl, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	inject(t, cl, 0, "jobRelay", &slowRelayState{Hops: 3})
	if err := cl.Wait(chaosTimeout); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.Close()
		}()
	}
	wg.Wait()
	cl.Close() // and once more, sequentially
}

func TestWaitJobTimeoutNamesTheJob(t *testing.T) {
	cl, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.InjectJob(0, 13, "jobRelay", &slowRelayState{Hops: 100, Pause: 50 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	err = cl.WaitJob(13, 50*time.Millisecond)
	if err == nil {
		t.Fatal("WaitJob returned before the slow job could have finished")
	}
	if !strings.Contains(err.Error(), "job 13") {
		t.Fatalf("timeout error does not identify the job: %v", err)
	}
	cl.CancelJob(13)
	if err := cl.WaitJob(13, chaosTimeout); err != nil {
		t.Fatal(err)
	}
}
