package sched

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/wire"
)

// TestMain routes a re-exec'd copy of this test binary into daemon host
// mode: the cross-process tests spawn real daemon OS processes by
// re-executing themselves (wire.SpawnHost), and those children must
// become hosts instead of running the test suite again.
func TestMain(m *testing.M) {
	if wire.HostMode() {
		os.Exit(wire.RunHostFromEnv())
	}
	os.Exit(m.Run())
}

// spawnTestCluster boots n daemon OS processes with state directories
// under the test's temp dir: node 0 bootstraps on an ephemeral port,
// the rest join through it. The returned slice is live — a test that
// respawns a daemon should store the new process back into its slot so
// cleanup sweeps the current incarnation.
func spawnTestCluster(t *testing.T, n int) []*wire.HostProc {
	t.Helper()
	root := t.TempDir()
	procs := make([]*wire.HostProc, 0, n)
	t.Cleanup(func() {
		for _, p := range procs {
			p.Kill9()
		}
	})
	for i := 0; i < n; i++ {
		cfg := wire.HostConfig{
			Listen:   "127.0.0.1:0",
			StateDir: filepath.Join(root, fmt.Sprintf("node%d", i)),
		}
		if i > 0 {
			cfg.Join = procs[0].Addr
		}
		p, err := wire.SpawnHost(cfg)
		if err != nil {
			t.Fatalf("spawn daemon %d: %v", i, err)
		}
		procs = append(procs, p)
	}
	return procs
}

// TestCrossProcessScheduling is the plumbing check under the chaos
// test: a scheduler in this process serving a mixed-priority batch over
// daemons that are real child OS processes, no faults. Every job must
// finish done and deliver its result exactly once.
func TestCrossProcessScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process test")
	}
	procs := spawnTestCluster(t, 2)
	rc, err := wire.DialCluster(procs[0].Addr, wire.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	s, err := New(Config{Cluster: rc, Workers: 3, Placement: &ConsistentHash{}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const jobs = 6
	ids := make([]uint64, jobs)
	for i := range ids {
		ids[i], err = s.Submit(Spec{
			Work:     WireMatmul{N: 5, Seed: int64(40 + i)},
			Priority: Priority(i % 3),
			Retries:  1,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	for i, id := range ids {
		ch, _ := s.Done(id)
		select {
		case <-ch:
		case <-time.After(time.Minute):
			st, _ := s.Status(id)
			t.Fatalf("job %d not terminal: %+v", i, st)
		}
		st, _ := s.Status(id)
		if st.State != "done" {
			t.Fatalf("job %d ended %s: %s", i, st.State, st.Error)
		}
		if res, err := s.Result(id); err != nil || res == nil {
			t.Fatalf("job %d: result lost: res=%v err=%v", i, res, err)
		}
		if _, err := s.Result(id); !errors.Is(err, ErrResultConsumed) {
			t.Fatalf("job %d: result delivered twice (second err %v)", i, err)
		}
	}
}

// TestCrossProcessChaos is the serving acceptance scenario at process
// granularity: a scheduler in this process drives a mixed-priority
// batch across three daemon OS processes, one daemon is killed with
// SIGKILL mid-run and respawned, and despite the crash every job must
// reach a terminal state, every job must end done (the retry budget
// plus checkpoint recovery absorb the kill), and every result must be
// delivered exactly once — never lost, never duplicated. Run under
// -race in CI (the multihost-smoke job).
func TestCrossProcessChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process chaos test")
	}
	const (
		daemons  = 3
		jobCount = 18
	)
	procs := spawnTestCluster(t, daemons)
	rc, err := wire.DialCluster(procs[0].Addr, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Size() != daemons {
		t.Fatalf("cluster assembled %d of %d daemons", rc.Size(), daemons)
	}
	s, err := New(Config{
		Cluster:    rc,
		Workers:    4,
		QueueDepth: jobCount,
		Placement:  &ConsistentHash{},
		// Tight enough that an attempt stuck on the dead daemon fails
		// and retries within the test's patience; long enough that the
		// respawned daemon usually rescues the in-flight attempt first.
		AttemptTimeout: 10 * time.Second,
		DrainTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	ids := make([]uint64, jobCount)
	for i := range ids {
		ids[i], err = s.Submit(Spec{
			Work:     WireMatmul{N: 6, Seed: int64(500 + i)},
			Priority: Priority(i % 3),
			Retries:  3,
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}

	// Let the batch get airborne, then kill -9 a daemon mid-run. The
	// process dies with whatever it held in memory; only its state
	// directory survives. After a dead window long enough for attempts
	// to trip over the corpse, the operator (this test) respawns the
	// node: the new incarnation reloads its snapshot and replays its
	// checkpointed agents, and the persist-before-ack ordering
	// guarantees no acknowledged hop or ack'd control write is lost.
	time.Sleep(300 * time.Millisecond)
	victim := procs[1]
	victim.Kill9()
	time.Sleep(500 * time.Millisecond)
	respawned, err := victim.Respawn(rc.Members())
	if err != nil {
		t.Fatalf("respawn daemon %d: %v", victim.ID, err)
	}
	procs[1] = respawned

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
	}

	done, attempts := 0, 0
	for i, id := range ids {
		st, err := s.Status(id)
		if err != nil {
			t.Fatalf("job %d: status: %v", i, err)
		}
		attempts += st.Attempts
		switch st.State {
		case "done":
			done++
			// The exactly-once contract across the crash: the result
			// exists, and a second retrieval is refused.
			res, err := s.Result(id)
			if err != nil || res == nil {
				t.Fatalf("job %d done but its result was lost: res=%v err=%v", i, res, err)
			}
			if _, err := s.Result(id); !errors.Is(err, ErrResultConsumed) {
				t.Fatalf("job %d: result delivered twice (second err %v)", i, err)
			}
		default:
			t.Errorf("job %d (id %d) ended %s: %s", i, id, st.State, st.Error)
		}
	}
	if done != jobCount {
		t.Fatalf("%d of %d jobs done — the kill -9 lost work despite checkpoints and retries", done, jobCount)
	}
	t.Logf("chaos: all %d jobs done across a kill -9 of daemon %d (%d attempts total)", done, victim.ID, attempts)
}

// TestCrossProcessVarPersistence pins the durability contract at
// process granularity: a node variable acknowledged by a daemon must
// survive that daemon being SIGKILLed and respawned from its state
// directory, because the daemon persists before it acknowledges.
func TestCrossProcessVarPersistence(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-process test")
	}
	procs := spawnTestCluster(t, 2)
	rc, err := wire.DialCluster(procs[0].Addr, wire.RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if err := rc.SetVar(1, "durable", int64(42)); err != nil {
		t.Fatal(err)
	}
	members := rc.Members()
	procs[1].Kill9()
	respawned, err := procs[1].Respawn(members)
	if err != nil {
		t.Fatal(err)
	}
	procs[1] = respawned
	// The client's cached control connection still points at the dead
	// incarnation; the first call after the respawn may fail and redial.
	var v any
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v, err = rc.GetVar(1, "durable"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("respawned daemon never answered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n, ok := v.(int64); !ok || n != 42 {
		t.Fatalf("acknowledged variable did not survive kill -9: got %v (%T), want 42", v, v)
	}
}

// migRelayState is the migration chaos probe: an agent that stays on
// its current node for Hops paused steps, counting every step it
// executes in Total (the count rides the checkpoint, so a replayed
// step restores the pre-step count first), and deposits Total under
// mig:res:<ID> on whatever node it finishes on. Exactly-once execution
// therefore means: each ID's result exists on exactly one node and
// equals Hops — a lost agent leaves a hole, a duplicated one deposits
// twice or over-counts.
type migRelayState struct {
	ID    int
	Hops  int
	Total int
	Pause time.Duration
}

func init() {
	wire.RegisterState(&migRelayState{})
	wire.Register("sched.testMigRelay", func(ctx *wire.Ctx) wire.Verdict {
		st := ctx.State().(*migRelayState)
		if st.Pause > 0 {
			time.Sleep(st.Pause)
		}
		st.Total++
		if st.Total >= st.Hops {
			ctx.Set(fmt.Sprintf("mig:res:%d", st.ID), int64(st.Total))
			return ctx.Done()
		}
		return ctx.HopTo(ctx.NodeID())
	})
}

// crossProcessMigrationChaos runs one kill interleaving of the one
// migration the runtime performs: agents working on a source daemon are
// evacuated by draining it into a destination daemon that is SIGKILLed
// first, so every evacuation is shipped but unacknowledged; with killSrc
// the source is SIGKILLed too while it waits, respawned, and its failed
// drain re-issued, as an operator retries it. The replay-ownership rule
// must keep execution exactly-once: an evacuated checkpoint is retired
// at the source only after the destination's persist-then-ack, so the
// source still owns every agent — its retry reaches the respawned
// destination, or its respawned incarnation replays the checkpoint and
// re-ships it to the pinned destination — never both running it, never
// neither. (With the destination up, an evacuation spends about a
// millisecond between its write and its ack, too short for a kill to
// land in reliably.)
func crossProcessMigrationChaos(t *testing.T, killSrc bool) {
	if testing.Short() {
		t.Skip("cross-process chaos test")
	}
	const (
		src    = 1
		dst    = 2 // the drain's destination: the next live member after src
		agents = 4
		hops   = 300
		ns     = uint64(91)
	)
	procs := spawnTestCluster(t, 3)
	rc, err := wire.DialCluster(procs[0].Addr, wire.RemoteOptions{Heartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	members := rc.Members()
	respawn := func(node int) {
		t.Helper()
		p, err := procs[node].Respawn(members)
		if err != nil {
			t.Fatalf("respawn daemon %d: %v", node, err)
		}
		procs[node] = p
	}
	drain := func() <-chan error {
		done := make(chan error, 1)
		go func() { done <- rc.DrainNode(src, time.Minute) }()
		return done
	}

	for i := 0; i < agents; i++ {
		st := &migRelayState{ID: i, Hops: hops, Pause: 2 * time.Millisecond}
		if err := rc.InjectJob(src, ns, "sched.testMigRelay", st); err != nil {
			t.Fatalf("inject %d: %v", i, err)
		}
	}
	time.Sleep(100 * time.Millisecond) // let the agents get airborne

	procs[dst].Kill9()
	drained := drain()
	time.Sleep(100 * time.Millisecond) // the evacuation ships and waits for acks
	victim := dst
	if killSrc {
		victim = src
		procs[src].Kill9()
		if err := <-drained; err == nil {
			t.Fatal("drain reported success from a source killed mid-evacuation")
		}
		respawn(src)
		drained = drain()
	}
	time.Sleep(200 * time.Millisecond)
	respawn(dst)
	if err := <-drained; err != nil {
		t.Fatalf("drain of daemon %d after kill -9 of daemon %d: %v", src, victim, err)
	}
	if slices.Contains(rc.LiveNodes(), src) {
		t.Fatalf("drained daemon %d still listed live: %v", src, rc.LiveNodes())
	}

	// Quiescence: every agent ran to completion despite the kill. The
	// client's cached control connections may point at the dead
	// incarnation, so retry through transient errors.
	deadline := time.Now().Add(time.Minute)
	for {
		if err = rc.WaitJob(ns, 5*time.Second); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never drained after kill -9 of daemon %d: %v", victim, err)
		}
	}

	// Zero lost, zero duplicated: each agent's result on exactly one
	// node, with exactly Hops steps executed.
	for i := 0; i < agents; i++ {
		foundOn, total := -1, int64(0)
		for node := 0; node < 3; node++ {
			var v any
			getDeadline := time.Now().Add(10 * time.Second)
			for {
				if v, err = rc.GetVar(node, fmt.Sprintf("mig:res:%d", i)); err == nil {
					break
				}
				if time.Now().After(getDeadline) {
					t.Fatalf("GetVar(%d) never answered: %v", node, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			if v == nil {
				continue
			}
			if foundOn >= 0 {
				t.Errorf("agent %d deposited results on nodes %d and %d — executed twice", i, foundOn, node)
			}
			foundOn = node
			total = v.(int64)
		}
		if foundOn < 0 {
			t.Errorf("agent %d's result lost — deposited on no node", i)
			continue
		}
		if total != hops {
			t.Errorf("agent %d executed %d steps, want exactly %d", i, total, hops)
		}
	}
	rc.ReleaseJob(ns)
	t.Logf("drain chaos: %d agents exactly-once across kill -9 of daemon %d", agents, victim)
}

// TestCrossProcessMigrationKillSource: SIGKILL the draining source after
// its evacuations ship but before any is acknowledged, then retry the
// drain.
func TestCrossProcessMigrationKillSource(t *testing.T) {
	crossProcessMigrationChaos(t, true)
}

// TestCrossProcessMigrationKillDestination: SIGKILL the drain's
// destination before it can persist-then-ack the incoming checkpoints.
func TestCrossProcessMigrationKillDestination(t *testing.T) {
	crossProcessMigrationChaos(t, false)
}
