package sched

import (
	"errors"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/matmul"
	"repro/internal/navp"
	"repro/internal/wire"
)

// TestSoakConcurrentJobsUnderChaos is the serving acceptance scenario
// (ISSUE satellite 3): ≥32 concurrent jobs with mixed kinds, priorities,
// and deadlines, over one shared cluster whose transport drops and
// duplicates frames and whose daemons are killed mid-run. Every job must
// reach a terminal state; every done job's result must be retrievable
// exactly once (never lost, never delivered twice); eviction and failure
// must carry an explanation; and when the dust settles the cluster must
// hold no per-job namespace state. Run under -race in CI.
func TestSoakConcurrentJobsUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		pes      = 4
		jobCount = 40
	)
	plan := &fault.Plan{
		Seed: 1789,
		Drop: 0.03,
		Dup:  1,
		Kills: []fault.Kill{
			{Node: 1, AfterArrivals: 30},
			{Node: 3, AfterArrivals: 55},
		},
	}
	cl, err := wire.NewClusterOpts(pes, wire.Options{
		Fault:      plan,
		AckTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{
		Cluster:    cl,
		Workers:    8,
		QueueDepth: 16, // small on purpose: submitters must absorb 429-style rejects
		Placement:  &LeastLoaded{},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	type outcome struct {
		id    uint64
		state string
		kind  string
		err   string
	}
	var (
		mu       sync.Mutex
		outcomes []outcome
		rejects  int
	)
	var wg sync.WaitGroup
	for i := 0; i < jobCount; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			spec := Spec{Retries: 3, Priority: Priority(i % 3)}
			switch i % 4 {
			case 0, 1: // wire jobs: the chaos-exposed path
				spec.Work = WireMatmul{N: 6, Seed: int64(100 + i)}
			case 2: // simulated stage, private virtual-time system
				spec.Work = MatmulStage{
					Stage: matmul.Stages[i%len(matmul.Stages)],
					Cfg: matmul.Config{N: 32, BS: 8, P: 2,
						HW: machine.SunBlade100(), NavP: navp.DefaultConfig()},
				}
			default: // wire job with an impossible deadline: must evict, not hang
				spec.Work = WireMatmul{N: 6, Seed: int64(100 + i)}
				spec.Deadline = time.Millisecond
			}
			var id uint64
			for {
				var err error
				id, err = s.Submit(spec)
				if err == nil {
					break
				}
				if !errors.Is(err, ErrQueueFull) {
					t.Errorf("job %d: submit: %v", i, err)
					return
				}
				mu.Lock()
				rejects++
				mu.Unlock()
				time.Sleep(5 * time.Millisecond)
			}
			ch, err := s.Done(id)
			if err != nil {
				t.Errorf("job %d: %v", i, err)
				return
			}
			select {
			case <-ch:
			case <-time.After(2 * time.Minute):
				st, _ := s.Status(id)
				t.Errorf("job %d (id %d) not terminal: %+v", i, id, st)
				return
			}
			st, err := s.Status(id)
			if err != nil {
				t.Errorf("job %d: status after done: %v", i, err)
				return
			}
			mu.Lock()
			outcomes = append(outcomes, outcome{id: id, state: st.State, kind: st.Kind, err: st.Error})
			mu.Unlock()

			// The exactly-once contract, probed per job.
			res, err := s.Result(id)
			switch st.State {
			case "done":
				if err != nil || res == nil {
					t.Errorf("job %d done but result lost: res=%v err=%v", i, res, err)
					return
				}
				if _, err := s.Result(id); !errors.Is(err, ErrResultConsumed) {
					t.Errorf("job %d: result delivered twice (second err %v)", i, err)
				}
			case "failed", "evicted":
				if err == nil {
					t.Errorf("job %d %s yet handed out a result", i, st.State)
				}
				if st.Error == "" {
					t.Errorf("job %d %s without an explanation", i, st.State)
				}
			default:
				t.Errorf("job %d closed its done channel in state %q", i, st.State)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	if len(outcomes) != jobCount {
		t.Fatalf("%d outcomes for %d jobs", len(outcomes), jobCount)
	}
	counts := map[string]int{}
	for _, o := range outcomes {
		counts[o.state]++
	}
	t.Logf("soak: %v, %d admission rejects absorbed", counts, rejects)
	// The deadline cohort (i%4==3) must be evicted, and the healthy wire +
	// sim cohorts must overwhelmingly succeed despite the chaos plan.
	if counts["evicted"] < jobCount/4 {
		t.Fatalf("only %d evictions; the 1ms-deadline cohort (%d jobs) should all evict", counts["evicted"], jobCount/4)
	}
	if counts["done"] < jobCount/2 {
		t.Fatalf("only %d/%d jobs done — chaos overwhelmed the retry budget: %v", counts["done"], jobCount, counts)
	}

	// No per-job namespace state may outlive its job: counter slices,
	// dedup windows, and checkpoint maps must all be reclaimed.
	deadline := time.Now().Add(30 * time.Second)
	for cl.JobsTracked() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d job namespaces still tracked after all jobs terminal", cl.JobsTracked())
		}
		time.Sleep(10 * time.Millisecond)
	}
	for pe := 0; pe < pes; pe++ {
		for _, o := range outcomes {
			if v, err := cl.GetVar(pe, fmt.Sprintf("j%d:B", o.id<<8|1)); err != nil || v != nil {
				t.Fatalf("PE %d still holds job %d's B partition (%v, %v)", pe, o.id, v, err)
			}
		}
	}
}

// TestSoakHTTPOpenLoop drives the same stack through the HTTP surface
// with the open-loop Poisson load generator — the in-process twin of
// `paperbench -serve`. No chaos here; the point is that the serving
// path itself neither loses nor double-delivers under open-loop
// concurrency, and that the SLO accounting adds up.
func TestSoakHTTPOpenLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	cl, err := wire.NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	s, err := New(Config{Cluster: cl, Workers: 6, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := wire.DebugHandler(cl.Metrics())
	NewServer(s).Register(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	res, err := RunOpenLoop(OpenLoopConfig{
		BaseURL:     ts.URL,
		Rate:        20,
		Duration:    2 * time.Second,
		Seed:        7,
		Request:     SubmitRequest{Kind: "wirematmul", N: 6, Retries: 2},
		TargetP50MS: 2000,
		TargetP99MS: 10000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered == 0 {
		t.Fatalf("open loop offered nothing: %+v", res)
	}
	if res.Offered != res.Submitted+res.Rejected {
		t.Fatalf("arrival accounting leaks: offered %d != submitted %d + rejected %d",
			res.Offered, res.Submitted, res.Rejected)
	}
	if res.Done != res.Submitted || res.Failed != 0 || res.Evicted != 0 {
		t.Fatalf("openloop: %+v — every admitted job should finish done on a faultless cluster", res)
	}
	if res.Done > 0 && (res.P50MS <= 0 || res.P99MS < res.P50MS) {
		t.Fatalf("implausible latency percentiles: %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("no throughput measured: %+v", res)
	}
	// The SLO verdicts must be consistent with the percentiles they score.
	if res.P50SLOMet != (res.P50MS <= res.TargetP50MS) || res.P99SLOMet != (res.P99MS <= res.TargetP99MS) {
		t.Fatalf("SLO verdicts disagree with measured percentiles: %+v", res)
	}
	if res.SLOAttainment < 0 || res.SLOAttainment > 1 {
		t.Fatalf("SLO attainment %v out of [0,1]", res.SLOAttainment)
	}
}
