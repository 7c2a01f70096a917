package wire

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

// Elasticity over the checkpoint substrate (DESIGN.md §16): freeze/thaw
// preemption, agent migration as a synthetic hop, node drain with
// counter absorption, and the tombstone-shell reroute protocol. These
// run against the in-process cluster; the cross-process versions live
// in internal/sched's multi-host suite.

func totalParked(cl *Cluster) int {
	n := 0
	for _, ns := range states(cl) {
		n += ns.parkedCount()
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(waitTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func TestFreezeMigrateThaw(t *testing.T) {
	cl := newCluster(t, 3)
	const job = 21
	const agents = 4
	for i := 0; i < agents; i++ {
		if err := cl.InjectJob(i%3, job, "jobRelay", &slowRelayState{Hops: 60, Pause: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(10 * time.Millisecond) // let them hop
	if err := cl.FreezeJob(job); err != nil {
		t.Fatal(err)
	}
	// Every agent parks at its next dispatch boundary. The last sender may
	// still be processing the ack of a hop whose agent has already parked,
	// so the namespace balances a moment after the parked count is full —
	// and then stays balanced, because nothing moves.
	waitFor(t, "all agents to park with no send in flight", func() bool {
		c := jobCounters(t, cl.RemoteCluster, job)
		return totalParked(cl) == agents && c.Sent == c.Received
	})

	// Migrate one node's residents two nodes on. Where the agents parked
	// depends on where the freeze caught them, so the source is whichever
	// node holds the most. While the job is frozen, the parked set IS the
	// resident set, so the marked count is exact and the shipped agents
	// re-park at the destination.
	src := 0
	for node, ns := range states(cl) {
		if ns.parkedCount() > states(cl)[src].parkedCount() {
			src = node
		}
	}
	dst := (src + 2) % 3
	before := states(cl)[src].parkedCount()
	moved, err := cl.MigrateAgents(src, dst, job, 0)
	if err != nil {
		t.Fatal(err)
	}
	if moved != before {
		t.Fatalf("MigrateAgents marked %d agents, node %d held %d", moved, src, before)
	}
	// The migrated counter ticks on the sender after the destination's
	// ack, which can trail the destination's own re-park — poll all
	// three observations together.
	waitFor(t, "migrated agents to land", func() bool {
		return states(cl)[src].parkedCount() == 0 && totalParked(cl) == agents &&
			cl.Metrics().Snapshot().Counter(MetricAgentsMigrated) >= int64(moved)
	})
	if err := cl.ThawJob(job); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitJob(job, chaosTimeout); err != nil {
		t.Fatalf("thawed job never drained: %v", err)
	}
	c := jobCounters(t, cl.RemoteCluster, job)
	if c.Created != int64(agents) || c.Finished != int64(agents) || c.Sent != c.Received {
		t.Fatalf("namespace imbalanced after freeze/migrate/thaw: %+v", c)
	}
	if g := cl.Metrics().Snapshot().Gauge(MetricAgentsParked); g != 0 {
		t.Fatalf("%s gauge = %d after thaw", MetricAgentsParked, g)
	}
}

func TestCancelThawsFrozenJob(t *testing.T) {
	cl := newCluster(t, 2)
	const job = 23
	for i := 0; i < 3; i++ {
		if err := cl.InjectJob(i%2, job, "jobRelay", &slowRelayState{Hops: 50, Pause: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if err := cl.FreezeJob(job); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "agents to park", func() bool { return totalParked(cl) == 3 })
	// A frozen, cancelled job must still drain: the cancel thaws the
	// parked agents so their next dispatch absorbs them.
	cl.CancelJob(job)
	if err := cl.WaitJob(job, chaosTimeout); err != nil {
		t.Fatalf("cancelled frozen job never drained: %v", err)
	}
	if n := totalParked(cl); n != 0 {
		t.Fatalf("%d agents still parked after cancel", n)
	}
}

func TestDrainNodeEvacuatesAndReroutes(t *testing.T) {
	cl := newCluster(t, 3)
	const job = 31
	for i := 0; i < 6; i++ {
		if err := cl.InjectJob(i%3, job, "jobRelay", &slowRelayState{Hops: 60, Pause: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(15 * time.Millisecond) // mid-flight
	if err := cl.DrainNode(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The job keeps running on the survivors. Its agents still name node
	// 2 in their itineraries ((id+1) % 3); the tombstone shell refuses
	// those frames and the senders reroute them, so termination proves
	// the whole refusal/reroute protocol converges.
	if err := cl.WaitJob(job, chaosTimeout); err != nil {
		t.Fatalf("job never drained after node drain: %v", err)
	}
	c := jobCounters(t, cl.RemoteCluster, job)
	if c.Created != 6 || c.Finished != 6 || c.Sent != c.Received {
		t.Fatalf("namespace imbalanced after drain: %+v", c)
	}
	for i, ns := range states(cl) {
		if p := ns.pendingCheckpoints(); p != 0 {
			t.Fatalf("node %d still holds %d checkpoints", i, p)
		}
	}
	// The drained node's history moved to a survivor; the shell reports
	// zeros so cluster totals are not double-counted.
	if z := states(cl)[2].counters(); z != (counters{}) {
		t.Fatalf("drained node still reports counters: %+v", z)
	}
	snap := cl.Metrics().Snapshot()
	if got := snap.Counter(MetricDrains); got != 1 {
		t.Fatalf("%s = %d, want 1", MetricDrains, got)
	}
	if snap.Counter(MetricFramesRefused) == 0 {
		t.Fatalf("no frames were refused by the tombstone shell")
	}
	if snap.Counter(MetricAgentsRerouted) == 0 {
		t.Fatalf("no agents were rerouted around the drained node")
	}

	// New work still flows, rerouted around the shell...
	if err := cl.InjectJob(0, 32, "jobRelay", &slowRelayState{Hops: 9}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitJob(32, chaosTimeout); err != nil {
		t.Fatalf("post-drain job never finished: %v", err)
	}
	// ...but the client refuses to place on the departed member, and the
	// shell itself refuses a fresh injection that reaches it anyway.
	if err := cl.InjectJob(2, 33, "jobRelay", &slowRelayState{Hops: 1}); err == nil {
		t.Fatal("client placed a fresh injection on a departed member")
	}
	err := cl.control(2, &envelope{Kind: msgInject, Job: 33,
		Agent: &agentMsg{Behavior: "jobRelay", State: &slowRelayState{Hops: 1}}})
	if err == nil {
		t.Fatal("drained node accepted a fresh injection")
	} else if !strings.Contains(err.Error(), "evacuated") {
		t.Fatalf("unexpected refusal error: %v", err)
	}
	// A second drain of the same node is a no-op, not an error.
	if err := cl.DrainNode(2, time.Second); err != nil {
		t.Fatalf("re-draining a drained node: %v", err)
	}
}

// TestElasticStateSurvivesPersistRoundTrip pins the elastic keys of the image:
// every destination pin, freeze mark, drain flag, and absorb record
// must round-trip, or a crashed node would forget decisions it already
// acted on.
func TestElasticStateSurvivesPersistRoundTrip(t *testing.T) {
	met := newWireMetrics(metrics.NewRegistry())
	src := newNodeState(3, met, 64)
	src.migrations[11] = 1
	src.assignMigration(12, 2)
	src.pinReroute(13, 0)
	src.freeze(7)
	src.setDraining(true)
	src.setEvacuated(true)
	if !src.absorb(5, counters{Created: 2, Finished: 2, Sent: 6, Received: 6}, map[uint64]counters{7: {Created: 2}}) {
		t.Fatal("first absorb rejected")
	}
	if got := src.pinAbsorbTarget(func() int { return 1 }); got != 1 {
		t.Fatalf("pinAbsorbTarget = %d, want 1", got)
	}

	// Round trip through a state directory: the image is written as a
	// snapshot (src was mutated before any persister tracked it) and read
	// back into a fresh node.
	dir := t.TempDir()
	p, err := newPersister(dir, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.compact(); err != nil {
		t.Fatal(err)
	}
	p.close()
	dst := loadState(t, dir, 3, 64)
	for id, want := range map[uint64]int{11: 1, 12: 2} {
		if got, ok := dst.migrateTarget(id); !ok || got != want {
			t.Fatalf("migration pin %d = (%d, %v), want %d", id, got, ok, want)
		}
	}
	if got, ok := dst.rerouteFor(13); !ok || got != 0 {
		t.Fatalf("reroute pin = (%d, %v), want 0", got, ok)
	}
	if !dst.frozenJob(7) {
		t.Fatal("freeze mark lost")
	}
	if !dst.isDraining() || !dst.isEvacuated() || dst.isDrained() {
		t.Fatalf("drain flags = (%v, %v, %v), want (true, true, false)",
			dst.isDraining(), dst.isEvacuated(), dst.isDrained())
	}
	// The absorbed set is the dup guard: a retried msgAbsorb from node 5
	// must be recognized, not re-added.
	if dst.absorb(5, counters{Created: 99}, nil) {
		t.Fatal("restored node re-absorbed a source it already merged")
	}
	// The pinned target survives; the pick function must not be re-run.
	if got := dst.pinAbsorbTarget(func() int { t.Fatal("pick re-run despite pin"); return 2 }); got != 1 {
		t.Fatalf("absorb target after restore = %d, want 1", got)
	}
	if c := dst.counters(); c.Created != 2 || c.Sent != 6 {
		t.Fatalf("absorbed counters lost in round trip: %+v", c)
	}
}

// TestRemoteClusterCloseIdempotent pins the Close contract: double and
// concurrent Closes are safe, the heartbeat prober has exited before
// Close returns, and no later call resurrects a connection. Run under
// -race this also proves the prober/Close shutdown handshake.
func TestRemoteClusterCloseIdempotent(t *testing.T) {
	h0, err := StartHost(HostConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Close()
	h1, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Join: h0.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()

	rc, err := DialCluster(h0.Addr, RemoteOptions{Heartbeat: true, HeartbeatInterval: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	// Let the prober run a few rounds so Close races a live heartbeat.
	waitFor(t, "prober to mark members alive", func() bool { return rc.Alive(0) && rc.Alive(1) })
	if err := rc.SetVar(1, "k", int64(1)); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rc.Close()
		}()
	}
	wg.Wait()
	rc.Close() // and once more, sequentially

	// Closed means closed: control round trips must fail fast instead of
	// redialing, and the heartbeat prober must not reopen probe conns.
	if _, err := rc.GetVar(1, "k"); err == nil {
		t.Fatal("GetVar succeeded on a closed RemoteCluster")
	}
	if err := rc.InjectJob(0, 9, "ring", &ringState{Laps: 1}); err == nil {
		t.Fatal("InjectJob succeeded on a closed RemoteCluster")
	}
}

// TestRemoteElasticGrowMigrateDrain is the remote-client half of the
// elasticity surface: a cluster grows by one joining host, the client
// adopts it via Refresh, freezes and migrates a job onto the joiner,
// and finally drains a founding member with the job completing intact.
func TestRemoteElasticGrowMigrateDrain(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir(), t.TempDir()}
	h0, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dirs[0]})
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Close()
	h1, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Join: h0.Addr, StateDir: dirs[1]})
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()

	rc, err := DialCluster(h0.Addr, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Size() != 2 {
		t.Fatalf("size = %d, want 2", rc.Size())
	}

	const job = 41
	if err := rc.InjectJob(0, job, "jobRelay", &slowRelayState{Hops: 200, Pause: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := rc.FreezeJob(job); err != nil {
		t.Fatal(err)
	}
	// A frozen job fails WaitJob fast with the sentinel, not a timeout.
	if err := rc.WaitJob(job, waitTimeout); err != ErrJobFrozen {
		t.Fatalf("WaitJob on frozen job = %v, want ErrJobFrozen", err)
	}

	// Grow: a third host joins mid-run; Refresh adopts it.
	h2, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Join: h0.Addr, StateDir: dirs[2]})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if err := rc.Refresh(); err != nil {
		t.Fatal(err)
	}
	if rc.Size() != 3 {
		t.Fatalf("size after join = %d, want 3", rc.Size())
	}
	if nodes := rc.LiveNodes(); len(nodes) != 3 {
		t.Fatalf("LiveNodes = %v, want 3 nodes", nodes)
	}
	// The joiner is freezable/placeable: re-broadcast the freeze so node
	// 2 parks the job too if it lands there, then migrate the parked
	// agent from wherever it stopped onto the joiner.
	if err := rc.FreezeJob(job); err != nil {
		t.Fatal(err)
	}
	// The agent may have been mid-hop when the freeze landed; until its
	// sender has the ack, two nodes hold a checkpoint and both would mark it.
	waitFor(t, "the agent to park with its last hop settled", func() bool {
		return h0.node.parkedCount()+h1.node.parkedCount() == 1 &&
			h0.node.pendingCheckpoints()+h1.node.pendingCheckpoints() == 1
	})
	movedTotal := 0
	for node := 0; node < 2; node++ {
		n, err := rc.MigrateAgents(node, 2, job, 0)
		if err != nil {
			t.Fatal(err)
		}
		movedTotal += n
	}
	if movedTotal != 1 {
		t.Fatalf("migrated %d agents onto the joiner, want 1", movedTotal)
	}
	if err := rc.ThawJob(job); err != nil {
		t.Fatal(err)
	}

	// Shrink: drain node 1 while the job runs; nothing may be lost.
	if err := rc.DrainNode(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if rc.Alive(1) || !rc.Left(1) {
		t.Fatal("drained node still counted live")
	}
	if nodes := rc.LiveNodes(); len(nodes) != 2 {
		t.Fatalf("LiveNodes after drain = %v, want 2", nodes)
	}
	if err := rc.WaitJob(job, chaosTimeout); err != nil {
		t.Fatalf("job lost across grow/migrate/drain: %v", err)
	}
	rc.ReleaseJob(job)
}
