package wire

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
)

// The in-process Cluster and a client of separately started hosts are
// one driver (DESIGN.md §13.3). These tests pin that from the outside:
// the same script must leave the same counters and variables behind
// whichever way the daemons were constructed, and the liveness and
// closed-client behaviour of the client hold for both.

// scriptState drives the one-driver script. The agent idles where it was
// injected (local re-hops, which touch no termination counter) until
// something moves it — the script's drain of its home — then walks Left
// hops round the ring leaving a trail, and finally idles again until
// the script cancels it. Every counter it can influence is therefore a
// function of the script alone, not of timing.
type scriptState struct {
	Key, Home, Left int
	Moved           bool
}

const scriptJob = 51

func init() {
	RegisterState(&scriptState{})
	Register("scriptAgent", func(ctx *Ctx) Verdict {
		st := ctx.State().(*scriptState)
		switch {
		case !st.Moved && ctx.NodeID() == st.Home:
			time.Sleep(time.Millisecond)
			return ctx.HopTo(ctx.NodeID())
		case st.Left > 0:
			st.Moved = true
			st.Left--
			ctx.Set(fmt.Sprintf("s%d:trail:%d:%d", scriptJob, st.Key, st.Left), int64(ctx.NodeID()))
			return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
		default:
			ctx.Set(fmt.Sprintf("s%d:arrived:%d", scriptJob, st.Key), true)
			time.Sleep(time.Millisecond)
			return ctx.HopTo(ctx.NodeID())
		}
	})
}

// driverRig is one construction of a three-node cluster: the client and
// the hosts behind it.
type driverRig struct {
	rc    *RemoteCluster
	hosts []*Host
}

func inProcessRig(t *testing.T) driverRig {
	cl := newCluster(t, 3)
	return driverRig{rc: cl.RemoteCluster, hosts: cl.hosts}
}

func startedHostsRig(t *testing.T) driverRig {
	var hosts []*Host
	var addrs []string
	for i := 0; i < 3; i++ {
		cfg := HostConfig{Listen: "127.0.0.1:0", StateDir: t.TempDir()}
		if i > 0 {
			cfg.Join = addrs[0]
		}
		h, err := StartHost(cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(h.Close)
		hosts = append(hosts, h)
		addrs = append(addrs, h.Addr)
	}
	// The join broadcast is asynchronous; agents hop by index, so every
	// host must know all three before the script starts.
	for _, h := range hosts {
		h := h
		waitFor(t, "membership to propagate", func() bool { return h.members.size() == 3 })
	}
	rc, err := StaticCluster(addrs, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rc.Close)
	return driverRig{rc: rc, hosts: hosts}
}

// scriptOutcome is everything the script leaves observable.
type scriptOutcome struct {
	AfterDrain, AfterCancel, ClusterTotal counters
	Vars                                  map[string]any
}

func runDriverScript(t *testing.T, rig driverRig) scriptOutcome {
	t.Helper()
	rc := rig.rc
	const agents, route = 3, 4
	parkedOn := func(node int) int { return rig.hosts[node].node.parkedCount() }
	prefix := fmt.Sprintf("s%d:", scriptJob)
	var out scriptOutcome

	for node := 0; node < 3; node++ {
		if err := rc.SetVar(node, prefix+"operand", [][]float64{{float64(node), 0.5}}); err != nil {
			t.Fatal(err)
		}
	}
	// inject: three agents idling on node 0.
	for k := 0; k < agents; k++ {
		if err := rc.InjectJob(0, scriptJob, "scriptAgent", &scriptState{Key: k, Home: 0, Left: route}); err != nil {
			t.Fatal(err)
		}
	}
	// freeze: each parks at its next dispatch, still on node 0.
	if err := rc.FreezeJob(scriptJob); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "agents to park on node 0", func() bool { return parkedOn(0) == agents })
	if err := rc.WaitJob(scriptJob, waitTimeout); err != ErrJobFrozen {
		t.Fatalf("WaitJob on the frozen job = %v, want ErrJobFrozen", err)
	}
	// drain node 0: its parked agents evacuate to node 1, where the
	// freeze re-parks them, and node 0 stays behind as a tombstone shell.
	if err := rc.DrainNode(0, waitTimeout); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "evacuated agents to re-park on node 1", func() bool {
		c, complete := rc.snapshotJob(scriptJob)
		return parkedOn(1) == agents && parkedOn(0) == 0 && complete && c.Sent == agents
	})
	out.AfterDrain = jobCounters(t, rc, scriptJob)
	// thaw: each walks its route and then idles where it ends. The shell
	// refuses the route's hops into node 0 and their senders reroute
	// them to node 1, so the walk is 1 → 2 → 1 → 2 → 1.
	if err := rc.ThawJob(scriptJob); err != nil {
		t.Fatal(err)
	}
	const end = 1
	waitFor(t, "agents to finish their routes", func() bool {
		for k := 0; k < agents; k++ {
			if v, err := rc.GetVar(end, fmt.Sprintf("%sarrived:%d", prefix, k)); err != nil || v != true {
				return false
			}
		}
		return true
	})
	// cancel: the idling agents retire at their next dispatch.
	rc.CancelJob(scriptJob)
	if err := rc.WaitJob(scriptJob, chaosTimeout); err != nil {
		t.Fatalf("cancelled job never drained: %v", err)
	}
	out.AfterCancel = jobCounters(t, rc, scriptJob)
	out.ClusterTotal = jobCounters(t, rc, 0)

	out.Vars = map[string]any{}
	names := []string{prefix + "operand"}
	for k := 0; k < agents; k++ {
		names = append(names, fmt.Sprintf("%sarrived:%d", prefix, k))
		for left := 0; left < route; left++ {
			names = append(names, fmt.Sprintf("%strail:%d:%d", prefix, k, left))
		}
	}
	for node := 0; node < 3; node++ {
		for _, name := range names {
			v, err := rc.GetVar(node, name)
			if err != nil {
				t.Fatal(err)
			}
			if v != nil {
				out.Vars[fmt.Sprintf("%d/%s", node, name)] = v
			}
		}
	}

	// release: nothing of the job may remain on any live node. The
	// drained shell keeps what it held until it is shut down: the client
	// sends reclamation frames to live members only.
	rc.ReleaseJob(scriptJob)
	rc.ClearVarsPrefix(prefix)
	for node, h := range rig.hosts {
		if node == 0 {
			continue
		}
		if n := h.node.jobsTracked(); n != 0 {
			t.Fatalf("node %d still tracks %d namespaces after release", node, n)
		}
		if p := h.node.pendingCheckpoints(); p != 0 {
			t.Fatalf("node %d still holds %d checkpoints", node, p)
		}
		if v, err := rc.GetVar(node, prefix+"operand"); err != nil || v != nil {
			t.Fatalf("node %d kept a cleared variable: (%v, %v)", node, v, err)
		}
	}
	return out
}

// TestOneDriverSameScript runs the inject → freeze → drain → thaw →
// cancel → release script against NewCluster(3) and against a
// StaticCluster client of three StartHost hosts with state directories.
// Both must end with the same counters at every checkpoint of the script
// and the same variables on the same nodes — the guard that the two
// constructions stay one driver.
func TestOneDriverSameScript(t *testing.T) {
	rigs := []struct {
		name  string
		build func(*testing.T) driverRig
	}{
		{"in-process", inProcessRig},
		{"started-hosts", startedHostsRig},
	}
	outcomes := make([]scriptOutcome, len(rigs))
	for i, r := range rigs {
		i, r := i, r
		t.Run(r.name, func(t *testing.T) { outcomes[i] = runDriverScript(t, r.build(t)) })
	}
	if t.Failed() {
		return
	}
	// Absolute expectations first, so "identical" cannot mean "identically
	// wrong": 3 evacuations, then 3 agents × 4 route hops, all retired.
	want := scriptOutcome{
		AfterDrain:   counters{Created: 3, Sent: 3, Received: 3},
		AfterCancel:  counters{Created: 3, Finished: 3, Sent: 15, Received: 15},
		ClusterTotal: counters{Created: 3, Finished: 3, Sent: 15, Received: 15},
	}
	for i, got := range outcomes {
		if got.AfterDrain != want.AfterDrain || got.AfterCancel != want.AfterCancel || got.ClusterTotal != want.ClusterTotal {
			t.Errorf("%s: counters = %+v / %+v / %+v, want %+v / %+v / %+v", rigs[i].name,
				got.AfterDrain, got.AfterCancel, got.ClusterTotal,
				want.AfterDrain, want.AfterCancel, want.ClusterTotal)
		}
		if n := len(got.Vars); n != 3+3+3*4 {
			t.Errorf("%s: %d script variables, want %d: %v", rigs[i].name, n, 3+3+3*4, got.Vars)
		}
	}
	if !reflect.DeepEqual(outcomes[0], outcomes[1]) {
		t.Fatalf("the two constructions diverged:\n%s: %+v\n%s: %+v",
			rigs[0].name, outcomes[0], rigs[1].name, outcomes[1])
	}
}

// TestWaitJobOnClosedClientFailsFast: after Close every member's round
// trip fails, so each snapshot round is "incomplete" — the detector must
// say the client is closed, not poll until the caller's deadline.
func TestWaitJobOnClosedClientFailsFast(t *testing.T) {
	h, err := StartHost(HostConfig{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	rc, err := DialCluster(h.Addr, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rc.InjectJob(0, 3, "jobRelay", &slowRelayState{Hops: 1}); err != nil {
		t.Fatal(err)
	}
	rc.Close()
	const timeout = 3 * time.Second
	start := time.Now()
	err = rc.WaitJob(3, timeout)
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("WaitJob on a closed client = %v, want a cluster-is-closed error", err)
	}
	if elapsed := time.Since(start); elapsed > timeout/3 {
		t.Fatalf("WaitJob on a closed client took %v of a %v timeout", elapsed, timeout)
	}
}

// TestAliveTracksInjectedKill: under a fault plan a killed daemon is down
// until the supervisor restarts it, and Alive must say so — placement
// steers by it. The plan kills node 1 on its first arrival and keeps it
// down long enough for the prober to notice.
func TestAliveTracksInjectedKill(t *testing.T) {
	plan := &fault.Plan{Seed: 9, RestartDelay: 0.4,
		Kills: []fault.Kill{{Node: 1, AfterArrivals: 1}}}
	cl, err := NewClusterOpts(2, Options{Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if !cl.Alive(0) || !cl.Alive(1) {
		t.Fatal("fresh cluster reports a dead node")
	}
	// The injection is node 1's first arrival: checkpointed, then the
	// daemon dies before it can acknowledge.
	if err := cl.Inject(1, "ring", &ringState{Laps: 1}); err == nil {
		t.Fatal("injection acknowledged by a daemon the plan kills on arrival")
	}
	waitFor(t, "Alive(1) to go false", func() bool { return !cl.Alive(1) })
	if !cl.Alive(0) {
		t.Fatal("the surviving node was reported dead")
	}
	if nodes := cl.LiveNodes(); len(nodes) != 2 {
		t.Fatalf("LiveNodes = %v: a killed node has not left the cluster", nodes)
	}
	waitFor(t, "Alive(1) to come back", func() bool { return cl.Alive(1) })
	// The restart replayed the checkpointed agent; it runs to completion.
	if err := cl.Wait(chaosTimeout); err != nil {
		t.Fatal(err)
	}
	if got := getVar(t, cl, 0, "ringsum"); got != int64(1) {
		t.Fatalf("ringsum = %v, want 1 (nodes 1 then 0, visited once each)", got)
	}
}

// TestSupervisorLeavesRetiredMemberDown: a drained member that is then
// shut down has left the cluster for good, so the supervisor of a plan
// that kills must not restart it — the prober skips departed members,
// and restarting is only ever its answer to a failed ping.
func TestSupervisorLeavesRetiredMemberDown(t *testing.T) {
	plan := &fault.Plan{RestartDelay: 0.05, Kills: []fault.Kill{{Node: 0, AfterArrivals: 1 << 30}}}
	cl, err := NewClusterOpts(3, Options{Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.DrainNode(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := cl.ShutdownNode(2); err != nil {
		t.Fatal(err)
	}
	// Several prober periods and restart delays.
	time.Sleep(600 * time.Millisecond)
	if conn, err := net.DialTimeout("tcp", cl.Members()[2], time.Second); err == nil {
		conn.Close()
		t.Fatal("restarted member 2 after it drained and shut down")
	}
}

// TestReclaimReachesReturningMember: a job released while one member is
// down must not leave its counter slice and variables on that member
// forever — the prober settles the owed frames when the member answers
// again. (A release can only follow a complete snapshot round, so in
// service the window is the instant between a member's last answer and
// its death; the test holds it open with a long restart delay.)
func TestReclaimReachesReturningMember(t *testing.T) {
	plan := &fault.Plan{Seed: 13, RestartDelay: 0.3,
		Kills: []fault.Kill{{Node: 1, AfterArrivals: 2}}}
	cl, err := NewClusterOpts(2, Options{Fault: plan})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Job 7 finishes on node 1 (its first arrival) and leaves a variable.
	if err := cl.InjectJob(0, 7, "jobRelay", &slowRelayState{Hops: 2, Key: "j7:seen"}); err != nil {
		t.Fatal(err)
	}
	if err := cl.WaitJob(7, chaosTimeout); err != nil {
		t.Fatal(err)
	}
	if states(cl)[1].jobsTracked() != 1 || getVar(t, cl, 1, "j7:seen@1") == nil {
		t.Fatal("job 7 left nothing on node 1; the test would prove nothing")
	}
	// Node 1's second arrival kills it, job 8's agent checkpointed inside.
	if err := cl.InjectJob(1, 8, "jobRelay", &slowRelayState{Hops: 1}); err == nil {
		t.Fatal("injection acknowledged by a daemon the plan kills on arrival")
	}
	waitFor(t, "node 1 to be seen dead", func() bool { return !cl.Alive(1) })
	cl.ReleaseJob(7)
	cl.ClearVarsPrefix("j7:")
	if states(cl)[1].jobsTracked() == 0 {
		t.Fatal("a dead daemon processed the release")
	}
	// The restart replays job 8's agent; once it is released too, nothing
	// may remain tracked anywhere — node 1's slice of job 7 included.
	waitFor(t, "node 1 to return", func() bool { return cl.Alive(1) })
	if err := cl.WaitJob(8, chaosTimeout); err != nil {
		t.Fatal(err)
	}
	cl.ReleaseJob(8)
	waitFor(t, "owed reclamation to settle", func() bool {
		v, err := cl.GetVar(1, "j7:seen@1")
		return cl.JobsTracked() == 0 && err == nil && v == nil
	})
}
