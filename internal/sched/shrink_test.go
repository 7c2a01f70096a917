package sched

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestCrossProcessElasticShrink is the elastic acceptance scenario at
// process granularity: eight daemon OS processes serve a steady stream
// of jobs, and halfway through the stream members 7, 6, 5 and 4 drain
// one by one (live agent migration, counter absorption, membership
// leave) while jobs keep arriving. A job whose carriers were planned
// over the old live set can lose one attempt when its ring rides into a
// drained member; the short attempt timeout fails it fast and the retry
// re-plans on the survivors. Zero lost results: every job ends done and
// hands out its result exactly once, and four members remain placeable.
// The base-PE checks prove the drain overlapped the load: the stream
// used the drained half before the first drain, and only the survivors
// after the last one.
func TestCrossProcessElasticShrink(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process elastic test")
	}
	const (
		from, to = 8, 4
		before   = 16 // jobs submitted before the first drain starts
		after    = 8  // jobs submitted after the last drain returns
		pace     = 25 * time.Millisecond
	)
	procs := spawnTestCluster(t, from)
	rc, err := wire.DialCluster(procs[0].Addr, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Size() != from {
		t.Fatalf("cluster assembled %d of %d daemons", rc.Size(), from)
	}
	s, err := New(Config{
		Cluster:   rc,
		Workers:   8,
		Placement: &ConsistentHash{},
		// Fail a mid-drain attempt fast instead of riding the default
		// 30s budget; the retry budget absorbs it.
		AttemptTimeout: 4 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var ids []uint64
	submit := func() {
		id, err := s.Submit(Spec{Work: WireMatmul{N: 8, Seed: int64(len(ids))}, Retries: 3})
		if err != nil {
			t.Fatalf("submit %d: %v", len(ids), err)
		}
		ids = append(ids, id)
		time.Sleep(pace)
	}
	for len(ids) < before {
		submit()
	}
	drained := make(chan error, 1)
	go func() {
		for node := from - 1; node >= to; node-- {
			if err := rc.DrainNode(node, 30*time.Second); err != nil {
				drained <- fmt.Errorf("drain node %d: %w", node, err)
				return
			}
		}
		drained <- nil
	}()
	var drainErr error
draining:
	for {
		select {
		case drainErr = <-drained:
			break draining
		default:
			submit()
		}
	}
	if drainErr != nil {
		t.Fatal(drainErr)
	}
	firstAfter := len(ids)
	for len(ids) < firstAfter+after {
		submit()
	}

	sawDrainedBase := false
	for i, id := range ids {
		ch, err := s.Done(id)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		select {
		case <-ch:
		case <-time.After(2 * time.Minute):
			st, _ := s.Status(id)
			t.Fatalf("job %d (id %d) never reached a terminal state: %+v", i, id, st)
		}
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("job %d: status: %v", i, err)
		}
		if st.State != "done" {
			t.Fatalf("job %d (id %d) ended %s across the shrink: %s", i, id, st.State, st.Error)
		}
		if res, err := s.Result(id); err != nil || res == nil {
			t.Fatalf("job %d done but its result was lost: res=%v err=%v", i, res, err)
		}
		if _, err := s.Result(id); !errors.Is(err, ErrResultConsumed) {
			t.Fatalf("job %d: result delivered twice (second err %v)", i, err)
		}
		switch {
		case i < before && st.Base >= to:
			sawDrainedBase = true
		case i >= firstAfter && st.Base >= to:
			t.Errorf("job %d submitted after the shrink was based on drained member %d", i, st.Base)
		}
	}
	if live := len(rc.LiveNodes()); live != to {
		t.Fatalf("after shrink %d members placeable, want %d", live, to)
	}
	if !sawDrainedBase {
		t.Fatalf("no job submitted before the drain was based on members %d..%d: the shrink never overlapped the load", to, from-1)
	}
	t.Logf("elastic %d->%d: all %d jobs done, %d submitted while draining", from, to, len(ids), firstAfter-before)
}
