package wire

import (
	"sort"
	"sync"
	"testing"
	"time"
)

// TestWaveVerdict drives the termination detector's decision function
// through scripted wave sequences: no sockets, no clock.
func TestWaveVerdict(t *testing.T) {
	type wave struct {
		cur      counters
		complete bool
		done     bool
		pollNow  bool
	}
	var (
		idle  = counters{}                                                // a job nobody has injected yet
		busy  = counters{Created: 4, Finished: 2, Sent: 7, Received: 6}   // agents alive, a hop in flight
		flat  = counters{Created: 4, Finished: 4, Sent: 9, Received: 9}   // balanced
		flat2 = counters{Created: 5, Finished: 5, Sent: 11, Received: 11} // balanced, but not the same
		skew  = counters{Created: 4, Finished: 4, Sent: 9, Received: 8}   // all finished, an ack outstanding
	)
	for _, tc := range []struct {
		name  string
		waves []wave
	}{
		{"balanced and identical after balanced is done", []wave{
			{flat, true, false, true},
			{flat, true, true, false},
		}},
		{"the first balanced wave is re-polled at once, not believed", []wave{
			{busy, true, false, false},
			{flat, true, false, true},
		}},
		{"balanced but different twice in a row: the second one sleeps", []wave{
			{flat, true, false, true},
			{flat2, true, false, false},
			{flat, true, false, false},
			{flat, true, true, false},
		}},
		{"unbalanced sleeps, however often it repeats", []wave{
			{busy, true, false, false},
			{busy, true, false, false},
			{skew, true, false, false},
			{skew, true, false, false},
		}},
		{"an unbalanced wave in between makes the next balanced one a new edge", []wave{
			{flat, true, false, true},
			{busy, true, false, false},
			{flat2, true, false, true},
			{flat2, true, true, false},
		}},
		// The dead-host caveat (RemoteCluster's doc comment): a round some
		// member did not answer proves nothing, whatever the others add up
		// to, and must not serve as either of the two confirming waves.
		{"an incomplete round forgets the wave before it", []wave{
			{flat, true, false, true},
			{flat, false, false, false},
			{flat, true, false, true},
			{flat, true, true, false},
		}},
		{"incomplete rounds alone never finish", []wave{
			{flat, false, false, false},
			{flat, false, false, false},
		}},
		{"job 0's totals and an untouched namespace take the same path", []wave{
			{idle, true, false, true},
			{idle, true, true, false},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var s waveState
			for i, w := range tc.waves {
				var done, pollNow bool
				s, done, pollNow = waveVerdict(s, w.cur, w.complete)
				if done != w.done || pollNow != w.pollNow {
					t.Fatalf("wave %d (%+v, complete %v): done %v pollNow %v, want done %v pollNow %v",
						i, w.cur, w.complete, done, pollNow, w.done, w.pollNow)
				}
			}
		})
	}
}

// TestWaitJobDoesNotSleepOnABalancedEdge pins the detector's latency on
// the case it serves most: a job already finished when the wait starts
// costs two complete rounds back to back, with no sleep between them.
// The bound is two of this run's own rounds (timed right beside each
// wait, so the race detector and a busy host stretch both alike) plus
// 2 ms of slack; the fixed 5 ms sleep the detector used to take between
// its two rounds is well outside it.
func TestWaitJobDoesNotSleepOnABalancedEdge(t *testing.T) {
	cl := newCluster(t, 2)
	rounds := func() int64 { return cl.Metrics().Snapshot().Counter(MetricWaitRounds) }
	median := func(d []time.Duration) time.Duration {
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	const jobs = 20
	var waits, oneRound []time.Duration
	for job := uint64(1); job <= jobs; job++ {
		if err := cl.InjectJob(int(job)%2, job, "jobRelay", &slowRelayState{Hops: 1}); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the zero-hop agent to finish", func() bool {
			c := jobCounters(t, cl.RemoteCluster, job)
			return c.Created == 1 && c.Finished == 1
		})
		start := time.Now()
		jobCounters(t, cl.RemoteCluster, job)
		oneRound = append(oneRound, time.Since(start))

		before, start := rounds(), time.Now()
		if err := cl.WaitJob(job, waitTimeout); err != nil {
			t.Fatal(err)
		}
		waits = append(waits, time.Since(start))
		if n := rounds() - before; n < 2 {
			t.Fatalf("job %d declared quiescent after %d complete round(s); the verdict needs two", job, n)
		}
	}
	wait, round := median(waits), median(oneRound)
	t.Logf("median WaitJob of a finished job %v, median snapshot round %v", wait, round)
	if limit := 2*round + 2*time.Millisecond; wait >= limit {
		t.Fatalf("median WaitJob of a finished job took %v, want under %v (two %v rounds and no sleep); all: %v",
			wait, limit, round, waits)
	}
}

// heldSteps lets a test block the "heldStep" behavior mid-step: a
// running step holds its agent's checkpoint, and a drain cannot evacuate
// the node while one is resident. hold arms it for one test run.
var heldSteps struct {
	mu               sync.Mutex
	started, release chan struct{}
}

func init() {
	Register("heldStep", func(ctx *Ctx) Verdict {
		heldSteps.mu.Lock()
		started, release := heldSteps.started, heldSteps.release
		heldSteps.mu.Unlock()
		started <- struct{}{}
		<-release
		return ctx.Done()
	})
}

// hold arms heldSteps; the returned function lets the held step go (and
// runs at cleanup regardless, so a failed test strands no goroutine).
func hold(t *testing.T) (started <-chan struct{}, letGo func()) {
	s, r := make(chan struct{}, 1), make(chan struct{})
	heldSteps.mu.Lock()
	heldSteps.started, heldSteps.release = s, r
	heldSteps.mu.Unlock()
	var once sync.Once
	letGo = func() { once.Do(func() { close(r) }) }
	t.Cleanup(letGo)
	return s, letGo
}

// TestDrainDoesNotHoldTheControlConnection: a drain is answered only
// when the evacuation ends, which can take as long as an agent's step.
// It must not occupy the member's shared control connection meanwhile.
func TestDrainDoesNotHoldTheControlConnection(t *testing.T) {
	started, letGo := hold(t)
	cl := newCluster(t, 2)
	const node, held, other = 1, 41, 42
	setVar(t, cl, node, "x", int64(7))
	if err := cl.InjectJob(node, held, "heldStep", &slowRelayState{}); err != nil {
		t.Fatal(err)
	}
	awaitEvent(t, started, "the held step to start")
	drained := make(chan error, 1)
	go func() { drained <- cl.DrainNode(node, waitTimeout) }()
	waitFor(t, "the drain to begin", func() bool { return states(cl)[node].isDraining() })

	// The drain is parked behind the held step. Another tenant's traffic
	// to the same member goes through regardless.
	if v := getVar(t, cl, node, "x"); v != int64(7) {
		t.Fatalf("GetVar on the draining node = %v, want 7", v)
	}
	if err := cl.InjectJob(0, other, "jobRelay", &slowRelayState{Hops: 1}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitJob(other, waitTimeout); err != nil {
		t.Fatalf("an unrelated job's WaitJob behind a drain: %v", err)
	}
	select {
	case err := <-drained:
		t.Fatalf("the drain returned (%v) while a step still held its node", err)
	default:
	}
	letGo()
	if err := awaitEvent(t, drained, "the drain to finish once the step let go"); err != nil {
		t.Fatalf("drain: %v", err)
	}
}
