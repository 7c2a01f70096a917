package wire

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestMembershipInvariants pins the table's stability rules: identity is
// the index, additions are idempotent by address, and no update may
// remap an index.
func TestMembershipInvariants(t *testing.T) {
	m := newMembership([]string{"127.0.0.1:7001", "127.0.0.1:7002"})
	if m.size() != 2 {
		t.Fatalf("size = %d, want 2", m.size())
	}
	id, err := m.add("127.0.0.1:7003")
	if err != nil || id != 2 {
		t.Fatalf("add new = (%d, %v), want (2, nil)", id, err)
	}
	// Re-adding an existing address returns the existing id (rejoin).
	id, err = m.add("127.0.0.1:7001")
	if err != nil || id != 0 {
		t.Fatalf("re-add = (%d, %v), want (0, nil)", id, err)
	}
	// An update that would remap an index is rejected wholesale.
	err = m.update([]string{"127.0.0.1:7001", "127.0.0.1:9999"})
	if err == nil || !strings.Contains(err.Error(), "remaps") {
		t.Fatalf("remap update error = %v", err)
	}
	// A stale shorter list is ignored without error.
	if err := m.update([]string{"127.0.0.1:7001"}); err != nil {
		t.Fatalf("stale update: %v", err)
	}
	if m.size() != 3 {
		t.Fatalf("size after stale update = %d, want 3", m.size())
	}
	// A longer consistent list grows the table.
	if err := m.update([]string{"127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003", "127.0.0.1:7004"}); err != nil {
		t.Fatalf("grow update: %v", err)
	}
	if a, err := m.addr(3); err != nil || a != "127.0.0.1:7004" {
		t.Fatalf("addr(3) = (%q, %v)", a, err)
	}
	// Leave tombstones the index; the address stays reserved.
	m.leave(1)
	if !m.left(1) {
		t.Fatal("member 1 should be marked left")
	}
	if _, err := m.addr(1); err == nil {
		t.Fatal("addr of a departed member should error")
	}
	if m.size() != 4 {
		t.Fatalf("size after leave = %d, want 4 (tombstones occupy their index)", m.size())
	}
	// Rejoin clears the tombstone.
	if id, err := m.add("127.0.0.1:7002"); err != nil || id != 1 {
		t.Fatalf("rejoin = (%d, %v), want (1, nil)", id, err)
	}
	if m.left(1) {
		t.Fatal("rejoined member still marked left")
	}
}

func TestParseSeeds(t *testing.T) {
	got, err := ParseSeeds("a:1, b:2\n# comment\n\nc:3 # trailing\n")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a:1", "b:2", "c:3"}
	if len(got) != len(want) {
		t.Fatalf("ParseSeeds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ParseSeeds = %v, want %v", got, want)
		}
	}
	for _, bad := range []string{"", "# only comments\n", "a:1\na:1", "noport", "a:1\nbad addr:2"} {
		if _, err := ParseSeeds(bad); err == nil {
			t.Errorf("ParseSeeds(%q) accepted", bad)
		}
	}
	round, err := ParseSeeds(FormatSeeds(want))
	if err != nil || len(round) != len(want) {
		t.Fatalf("FormatSeeds round trip = (%v, %v)", round, err)
	}
}

// TestConcurrentJoinsThroughDifferentMembers races joins through
// different members. Id assignment is serialized through node 0 (other
// members forward), so every joiner must get a distinct index and all
// views must converge; without the forwarding, two members would both
// hand out len(addrs) and the conflicting broadcasts would leave the
// membership permanently split.
func TestConcurrentJoinsThroughDifferentMembers(t *testing.T) {
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

	// Four joiners race in, alternating their join target between node 0
	// and node 1 so both the direct and the forwarded path run hot.
	targets := []string{h0.Addr, h1.Addr, h1.Addr, h0.Addr}
	hosts := make([]*Host, len(targets))
	errs := make([]error, len(targets))
	var wg sync.WaitGroup
	for i, target := range targets {
		wg.Add(1)
		go func(i int, target string) {
			defer wg.Done()
			hosts[i], errs[i] = StartHost(HostConfig{Listen: "127.0.0.1:0", Join: target})
		}(i, target)
	}
	wg.Wait()
	ids := map[int]bool{h0.ID: true, h1.ID: true}
	for i, h := range hosts {
		if errs[i] != nil {
			t.Fatalf("join %d via %s: %v", i, targets[i], errs[i])
		}
		defer h.Close()
		if ids[h.ID] {
			t.Fatalf("joiner %d assigned duplicate id %d", i, h.ID)
		}
		ids[h.ID] = true
	}
	// Every view converges on all six members (broadcasts are async).
	want := len(targets) + 2
	all := append([]*Host{h0, h1}, hosts...)
	deadline := time.Now().Add(5 * time.Second)
	for _, h := range all {
		for h.members.size() != want {
			if time.Now().After(deadline) {
				t.Fatalf("host %d sees %d members, want %d", h.ID, h.members.size(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
		if err := validateMembers(h.members.list()); err != nil {
			t.Fatalf("host %d membership invalid: %v", h.ID, err)
		}
	}
}

// TestHostJoinInjectWait runs a three-host cluster inside one test
// process: bootstrap, two joins, then the full coordinator surface over
// RemoteCluster — variables, a job injection that rings across all
// three hosts, termination detection, and cleanup.
func TestHostJoinInjectWait(t *testing.T) {
	h0, err := StartHost(HostConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Close()
	if h0.ID != 0 {
		t.Fatalf("bootstrap id = %d, want 0", h0.ID)
	}
	h1, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Join: h0.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer h1.Close()
	h2, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Join: h0.Addr})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	if h1.ID != 1 || h2.ID != 2 {
		t.Fatalf("joined ids = %d, %d, want 1, 2", h1.ID, h2.ID)
	}

	// Node 0 pushes the grown list to h1 asynchronously after h2's join.
	waitFor(t, "h1 to learn of h2", func() bool { return h1.members.size() == 3 })
	rc, err := DialCluster(h1.Addr, RemoteOptions{Heartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	if rc.Size() != 3 {
		t.Fatalf("remote size = %d, want 3", rc.Size())
	}
	for i := 0; i < 3; i++ {
		if !rc.Alive(i) {
			t.Fatalf("node %d not alive", i)
		}
	}

	if err := rc.SetVar(2, "greeting", "hello"); err != nil {
		t.Fatal(err)
	}
	v, err := rc.GetVar(2, "greeting")
	if err != nil || v != "hello" {
		t.Fatalf("GetVar = (%v, %v), want hello", v, err)
	}
	if v, err := rc.GetVar(2, "absent"); err != nil || v != nil {
		t.Fatalf("GetVar absent = (%v, %v), want nil", v, err)
	}

	const job = 77
	if err := rc.InjectJob(0, job, "ring", &ringState{Laps: 2}); err != nil {
		t.Fatal(err)
	}
	if err := rc.WaitJob(job, waitTimeout); err != nil {
		t.Fatal(err)
	}
	// The ring visits every node Laps times; starting at node 0 it
	// finishes its 6th step on node 2, where the sum lands.
	sum, err := rc.GetVar(2, "ringsum")
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * (0 + 1 + 2)); sum != want {
		t.Fatalf("ringsum = %v, want %d", sum, want)
	}
	rc.ReleaseJob(job)
	rc.ClearVarsPrefix("ringsum")
	if v, _ := rc.GetVar(2, "ringsum"); v != nil {
		t.Fatalf("ringsum survived ClearVarsPrefix: %v", v)
	}
}

// TestHostPersistRestart checks the durable half of a host: state
// written before the daemon stops is there for the next incarnation of
// the same node, loaded from the state directory.
func TestHostPersistRestart(t *testing.T) {
	dir := t.TempDir()
	h, err := StartHost(HostConfig{Listen: "127.0.0.1:0", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	addr := h.Addr
	rc, err := StaticCluster([]string{addr}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.SetVar(0, "persisted", int64(42)); err != nil {
		t.Fatal(err)
	}
	const job = 9
	if err := rc.InjectJob(0, job, "ring", &ringState{Laps: 1}); err != nil {
		t.Fatal(err)
	}
	if err := rc.WaitJob(job, waitTimeout); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	h.Close()

	// Same node, next incarnation: static identity, same address, same
	// state directory.
	h2, err := StartHost(HostConfig{Listen: addr, Advertise: addr, Peers: []string{addr}, Node: 0, StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Close()
	rc2, err := StaticCluster([]string{addr}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rc2.Close()
	if v, err := rc2.GetVar(0, "persisted"); err != nil || v != int64(42) {
		t.Fatalf("persisted var after restart = (%v, %v), want 42", v, err)
	}
	if v, err := rc2.GetVar(0, "ringsum"); err != nil || v != int64(0) {
		t.Fatalf("ringsum after restart = (%v, %v), want 0", v, err)
	}
	// A mismatched node id must refuse the state directory.
	if _, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Peers: []string{"127.0.0.1:1", addr}, Node: 1, StateDir: dir}); err == nil {
		t.Fatal("StartHost accepted a state dir owned by another node")
	}
}

// TestRemoteClusterDetectsDeadHost: WaitJob must not declare a job
// terminated while a member is unreachable — its disk may hold the only
// copy of live agents.
func TestRemoteClusterDetectsDeadHost(t *testing.T) {
	h0, err := StartHost(HostConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h0.Close()
	h1, err := StartHost(HostConfig{Listen: "127.0.0.1:0", Join: h0.Addr})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := DialCluster(h0.Addr, RemoteOptions{Heartbeat: true})
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()

	h1.Close() // node 1 goes dark
	const job = 5
	if err := rc.InjectJob(0, job, "ring", &ringState{Laps: 1}); err != nil {
		t.Fatal(err)
	}
	// The ring needs node 1; with it down the job cannot terminate, and
	// WaitJob must say so rather than declare success off an incomplete
	// snapshot.
	if err := rc.WaitJob(job, 300*time.Millisecond); err == nil {
		t.Fatal("WaitJob succeeded with a dead member holding the job")
	}
	deadline := time.Now().Add(2 * time.Second)
	for rc.Alive(1) {
		if time.Now().After(deadline) {
			t.Fatal("liveness prober never marked node 1 dead")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !rc.Alive(0) {
		t.Fatal("node 0 wrongly marked dead")
	}
}

func init() {
	Register("hopToNode3", func(ctx *Ctx) Verdict {
		if ctx.NodeID() == 3 {
			ctx.Set("arrived", ctx.Job())
			return ctx.Done()
		}
		return ctx.HopTo(3)
	})
}

// TestHopBeyondStaleMembership hops to a member the hopping daemon has
// not heard of: the join broadcast that would have told it is
// best-effort, so the daemon refreshes its view from node 0 instead of
// failing the hop.
func TestHopBeyondStaleMembership(t *testing.T) {
	cl, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	stale := cl.hosts[2].members
	stale.mu.Lock()
	stale.addrs, stale.down = stale.addrs[:3], stale.down[:3]
	stale.mu.Unlock()

	if err := cl.InjectJob(2, 5, "hopToNode3", nil); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitJob(5, chaosTimeout); err != nil {
		t.Fatalf("job did not quiesce: %v", err)
	}
	if got := getVar(t, cl, 3, "arrived"); got != uint64(5) {
		t.Fatalf("node 3 recorded %v, want job 5", got)
	}
	if n := stale.size(); n != 4 {
		t.Fatalf("node 2 sees %d members after the hop, want 4", n)
	}
}
