package wire

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// ErrJobFrozen is returned by WaitJob for a namespace the client has
// frozen: a preempted job is parked, not progressing, and a caller
// waiting for quiescence would otherwise burn its whole timeout on a
// job that cannot move.
var ErrJobFrozen = errors.New("wire: job is frozen")

// errClosed is what every operation on a closed client returns: Close
// promises no connection is redialed back open.
var errClosed = errors.New("wire: remote cluster is closed")

// remoteMember is the client's view of one cluster node: its address,
// a pipelined control connection every caller's round trips share (see
// ctlConn), a dedicated heartbeat probe connection (so a deep control
// queue cannot starve liveness), and the liveness / departure flags.
type remoteMember struct {
	addr  string
	ctl   *ctlConn
	probe *ctlConn
	alive atomic.Bool
	left  atomic.Bool

	// owed holds the reclamation frames (msgFree, msgClear) that could not
	// be delivered because the member was unreachable; the prober settles
	// them when it next answers. No cap is needed: a job only reaches its
	// release after a complete snapshot round, so the frames owed to a
	// member are those of the jobs that finished in the instant between
	// its last answer and its death — at most one per scheduler worker.
	owedMu sync.Mutex
	owed   []*envelope
}

// settle re-delivers owed reclamation frames over the probe connection
// (so it never queues behind the control connection's callers), stopping
// at the first failure; both frame kinds are idempotent.
func (m *remoteMember) settle(timeout time.Duration) {
	m.owedMu.Lock()
	owed := m.owed
	m.owed = nil
	m.owedMu.Unlock()
	for i, env := range owed {
		if _, err := m.probe.roundTrip(env, timeout); err != nil {
			m.owedMu.Lock()
			m.owed = append(owed[i:], m.owed...)
			m.owedMu.Unlock()
			return
		}
	}
}

// RemoteCluster is the coordinator's client for a cluster of daemons —
// the one cluster driver: inject, wait, variables, cancellation, freeze,
// drain, all as control frames over per-member connections.
// It drives daemon processes on other machines and, embedded in Cluster,
// the in-process hosts of a test or a single-binary server exactly the
// same way, so a scheduler built on sched.Backend never knows which it
// has.
//
// The termination-detection caveat of distribution: a coordinator
// polling a killed host gets nothing — and an incomplete snapshot must
// never be mistaken for a balanced one, or WaitJob would declare a job
// finished while its agents sit checkpointed on the dead host.
// Unreachable member ⇒ the round is discarded, and the job stays live
// until every member answers again. Members marked left
// (a completed drain) are the one exception: their history was absorbed
// by a survivor and they report zeros ever after, so snapshots skip
// them — which is what lets a job finish after the cluster shrinks.
//
// The member table can grow mid-run (Refresh adopts joiners) but an
// index, once assigned, is permanent — the same stability invariant the
// daemons' membership table has.
type RemoteCluster struct {
	reg *metrics.Registry
	met *wireMetrics // client-side handles (wire.ctl.*, wire.wait.*), resolved once

	mu        sync.Mutex
	members   []*remoteMember
	cancelled map[uint64]bool
	frozen    map[uint64]bool

	// errs carries the daemons' asynchronous failures to a waiting caller
	// when the hosts share this address space (Cluster sets it); nil for a
	// client of remote processes, whose errors stay in their own logs.
	errs chan error
	// down, when set, is called by the prober with the index of a member
	// that failed its ping: Cluster's restart of an in-process daemon. A
	// client of remote processes leaves the restarting to an operator or
	// a process supervisor.
	down func(i int)

	closed atomic.Bool
	hbStop chan struct{}
	hbDone chan struct{}

	closeOnce sync.Once
}

// RemoteOptions tunes the client; the zero value works.
type RemoteOptions struct {
	// Heartbeat enables the background liveness prober feeding Alive
	// (a one-shot operator client wants none).
	Heartbeat bool
}

// DialCluster discovers the membership through any live member (an
// observer msgJoin) and returns a client for the whole cluster.
func DialCluster(seed string, ropts RemoteOptions) (*RemoteCluster, error) {
	c := &ctlConn{addr: seed}
	defer c.close()
	reply, err := c.roundTrip(&envelope{Kind: msgJoin}, controlTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial cluster via %s: %w", seed, err)
	}
	if reply.Kind != msgMembers {
		return nil, fmt.Errorf("wire: dial cluster via %s: unexpected %s reply", seed, reply.Kind)
	}
	return StaticCluster(reply.Members, ropts)
}

// StaticCluster returns a client for a known member list (the seed file
// of a static deployment), reporting into a registry of its own.
func StaticCluster(members []string, ropts RemoteOptions) (*RemoteCluster, error) {
	rc, err := newRemoteCluster(members, metrics.NewRegistry())
	if err != nil {
		return nil, err
	}
	if ropts.Heartbeat {
		rc.startProber()
	}
	return rc, nil
}

// newRemoteCluster builds a client, its prober not yet started.
func newRemoteCluster(members []string, reg *metrics.Registry) (*RemoteCluster, error) {
	if err := validateMembers(members); err != nil {
		return nil, err
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("wire: empty member list")
	}
	rc := &RemoteCluster{
		reg:       reg,
		met:       newWireMetrics(reg),
		cancelled: map[uint64]bool{},
		frozen:    map[uint64]bool{},
	}
	for _, addr := range members {
		rc.members = append(rc.members, newRemoteMember(addr, rc.met))
	}
	return rc, nil
}

// startProber starts the liveness prober; the down hook, if any, is set
// before it.
func (rc *RemoteCluster) startProber() {
	rc.hbStop = make(chan struct{})
	rc.hbDone = make(chan struct{})
	go rc.heartbeat()
}

func newRemoteMember(addr string, met *wireMetrics) *remoteMember {
	m := &remoteMember{addr: addr, ctl: &ctlConn{addr: addr, met: met}, probe: &ctlConn{addr: addr}}
	m.alive.Store(true) // optimistic until the prober says otherwise
	return m
}

// snapshotMembers copies the member slice; the *remoteMember pointers
// are stable across table growth, so callers iterate without the lock.
func (rc *RemoteCluster) snapshotMembers() []*remoteMember {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return append([]*remoteMember(nil), rc.members...)
}

// member returns node i or nil.
func (rc *RemoteCluster) member(i int) *remoteMember {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if i < 0 || i >= len(rc.members) {
		return nil
	}
	return rc.members[i]
}

// Size returns the cluster's node count, departed members included (a
// left member still occupies its index).
func (rc *RemoteCluster) Size() int {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return len(rc.members)
}

// Members returns the address table in node-id order.
func (rc *RemoteCluster) Members() []string {
	ms := rc.snapshotMembers()
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

// Metrics returns the client-side metric registry.
func (rc *RemoteCluster) Metrics() *metrics.Registry { return rc.reg }

// Alive reports the liveness prober's last verdict on node i (always
// true when the prober is disabled, false for departed members).
// Placement uses it to steer fresh work away from dead hosts;
// correctness never depends on it.
func (rc *RemoteCluster) Alive(i int) bool {
	m := rc.member(i)
	return m != nil && !m.left.Load() && m.alive.Load()
}

// LiveNodes lists the indices of members that have not departed. It is
// the scheduler's placement domain in an elastic cluster.
func (rc *RemoteCluster) LiveNodes() []int {
	var out []int
	for i, m := range rc.snapshotMembers() {
		if !m.left.Load() {
			out = append(out, i)
		}
	}
	return out
}

// Refresh re-discovers the membership through any live member and
// adopts joiners (a grown cluster's new daemons become addressable).
// Existing indices are never remapped; a shrunken reply is stale and
// ignored.
func (rc *RemoteCluster) Refresh() error {
	if rc.closed.Load() {
		return errClosed
	}
	var reply *envelope
	var err error
	for _, m := range rc.snapshotMembers() {
		if m.left.Load() {
			continue
		}
		reply, err = m.ctl.roundTrip(&envelope{Kind: msgJoin}, controlTimeout)
		if err == nil && reply.Kind == msgMembers {
			break
		}
		reply = nil
	}
	if reply == nil {
		if err == nil {
			err = fmt.Errorf("no live member answered")
		}
		return fmt.Errorf("wire: refresh membership: %w", err)
	}
	rc.mu.Lock()
	defer rc.mu.Unlock()
	for i, m := range rc.members {
		if i < len(reply.Members) && reply.Members[i] != m.addr {
			return fmt.Errorf("wire: refresh remaps node %d from %s to %s", i, m.addr, reply.Members[i])
		}
	}
	for i := len(rc.members); i < len(reply.Members); i++ {
		rc.members = append(rc.members, newRemoteMember(reply.Members[i], rc.met))
	}
	return nil
}

// heartbeat probes every member each heartbeatInterval. A member that
// fails its ping is marked dead and handed to the down hook, if there is
// one; departed members are skipped, so a drained member is never
// restarted.
func (rc *RemoteCluster) heartbeat() {
	defer close(rc.hbDone)
	for {
		select {
		case <-rc.hbStop:
			return
		case <-time.After(heartbeatInterval):
		}
		for i, m := range rc.snapshotMembers() {
			select {
			case <-rc.hbStop:
				return
			default:
			}
			if m.left.Load() {
				continue
			}
			reply, err := m.probe.roundTrip(&envelope{Kind: msgPing}, 4*heartbeatInterval)
			alive := err == nil && reply.Kind == msgPong
			m.alive.Store(alive)
			switch {
			case alive:
				m.settle(controlTimeout)
			case rc.down != nil && !m.left.Load():
				rc.down(i)
			}
		}
	}
}

// control performs one round trip to node i expecting an ok reply.
func (rc *RemoteCluster) control(i int, env *envelope) error {
	reply, err := rc.roundTrip(i, env)
	if err != nil {
		return err
	}
	if reply.Kind != msgOK {
		return fmt.Errorf("wire: %s to node %d: unexpected %s reply", env.Kind, i, reply.Kind)
	}
	if reply.Err != "" {
		return fmt.Errorf("wire: %s to node %d: %s", env.Kind, i, reply.Err)
	}
	return nil
}

// eachMember runs fn once for every one of members that has not
// departed, all at the same time — each member has its own connection, so
// a round costs its slowest member rather than their sum — and returns
// when every call has. One goroutine per member needs no bound: a
// cluster is a handful of daemons. The last call runs on the caller's
// goroutine, so a one-daemon cluster starts none.
func eachMember(members []*remoteMember, fn func(i int, m *remoteMember)) {
	var live []int
	for i, m := range members {
		if !m.left.Load() {
			live = append(live, i)
		}
	}
	if len(live) == 0 {
		return
	}
	var wg sync.WaitGroup
	for _, i := range live[:len(live)-1] {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i, members[i])
		}(i)
	}
	last := live[len(live)-1]
	fn(last, members[last])
	wg.Wait()
}

// broadcast sends env to every member that has not departed, one round
// trip each, and returns the first failure in member order; a failed
// member does not stop the others being told.
func (rc *RemoteCluster) broadcast(env *envelope) error {
	members := rc.snapshotMembers()
	errs := make([]error, len(members))
	eachMember(members, func(i int, _ *remoteMember) { errs[i] = rc.control(i, env) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// reclaim broadcasts a reclamation frame. A member that cannot be reached
// owes it, and the prober (when enabled) delivers it on the member's
// return — otherwise a daemon that was down in the instant a job was
// released would hold that job's counter slice and variables, in memory
// and in every snapshot it writes, for good.
func (rc *RemoteCluster) reclaim(env *envelope) {
	eachMember(rc.snapshotMembers(), func(i int, m *remoteMember) {
		if rc.control(i, env) != nil && rc.hbStop != nil {
			m.owedMu.Lock()
			m.owed = append(m.owed, env)
			m.owedMu.Unlock()
		}
	})
}

// roundTrip performs one control round trip to node i. A closed client
// refuses instead of redialing — the post-Close resurrection Close
// promises not to allow.
func (rc *RemoteCluster) roundTrip(i int, env *envelope) (*envelope, error) {
	if rc.closed.Load() {
		return nil, errClosed
	}
	m := rc.member(i)
	if m == nil {
		return nil, fmt.Errorf("wire: no member %d in a cluster of %d", i, rc.Size())
	}
	reply, err := m.ctl.roundTrip(env, controlTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: %s to node %d (%s): %w", env.Kind, i, m.addr, err)
	}
	return reply, nil
}

// SetVar places a node variable on node i. The daemon persists before
// acknowledging, so a returned nil means the write survives kill -9.
func (rc *RemoteCluster) SetVar(node int, name string, v any) error {
	return rc.control(node, &envelope{Kind: msgSetVar, Name: name, Value: &stateBox{V: v}})
}

// GetVar reads a node variable from node i.
func (rc *RemoteCluster) GetVar(node int, name string) (any, error) {
	reply, err := rc.roundTrip(node, &envelope{Kind: msgGetVar, Name: name})
	if err != nil {
		return nil, err
	}
	if reply.Kind != msgVar {
		return nil, fmt.Errorf("wire: getvar %q from node %d: unexpected %s reply", name, node, reply.Kind)
	}
	if reply.Value == nil {
		return nil, nil
	}
	return reply.Value.V, nil
}

// InjectJob starts an agent on node under a job namespace: the agent —
// and every agent it transitively injects — is accounted to job, so
// WaitJob can detect that one tenant's work has drained while others
// still run, and CancelJob can retire its agents without touching anyone
// else's. The daemon checkpoints and persists the agent before
// acknowledging, so a nil return means the injection is durable there.
// Departed members refuse placement immediately. job must be nonzero (0
// is the default namespace of plain Inject).
func (rc *RemoteCluster) InjectJob(node int, job uint64, behavior string, state any) error {
	if job == 0 {
		return fmt.Errorf("wire: job id must be nonzero")
	}
	return rc.inject(node, job, behavior, state)
}

// Inject is InjectJob into the default namespace (job 0), the one Wait
// observes — the paper's command-line injection.
func (rc *RemoteCluster) Inject(node int, behavior string, state any) error {
	return rc.inject(node, 0, behavior, state)
}

func (rc *RemoteCluster) inject(node int, job uint64, behavior string, state any) error {
	if m := rc.member(node); m != nil && m.left.Load() {
		return fmt.Errorf("wire: node %d has left the cluster", node)
	}
	return rc.control(node, &envelope{
		Kind: msgInject, Job: job,
		Agent: &agentMsg{Behavior: behavior, State: state},
	})
}

// FreezeJob parks a job namespace cluster-wide: every member checkpoints
// the freeze mark, and the job's agents stop at their next dispatch
// boundary with counters untouched. WaitJob on a frozen job returns
// ErrJobFrozen instead of burning its timeout.
func (rc *RemoteCluster) FreezeJob(job uint64) error {
	if job == 0 {
		return fmt.Errorf("wire: FreezeJob needs a nonzero job id")
	}
	rc.mu.Lock()
	rc.frozen[job] = true
	rc.mu.Unlock()
	return rc.broadcast(&envelope{Kind: msgFreeze, Job: job})
}

// ThawJob resumes a frozen namespace: every member re-dispatches its
// parked agents.
func (rc *RemoteCluster) ThawJob(job uint64) error {
	if job == 0 {
		return fmt.Errorf("wire: ThawJob needs a nonzero job id")
	}
	rc.mu.Lock()
	delete(rc.frozen, job)
	rc.mu.Unlock()
	return rc.broadcast(&envelope{Kind: msgThaw, Job: job})
}

// jobFrozen reports whether the client has frozen the namespace.
func (rc *RemoteCluster) jobFrozen(job uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.frozen[job]
}

// DrainNode evacuates node: every resident agent migrates to a live
// member, the node's counter history is absorbed by a survivor, and the
// member is marked departed here. The daemon keeps serving as a tombstone
// shell (settling duplicate acks, refusing fresh frames) until it is
// shut down. timeout bounds the daemon-side evacuation; the round trip
// itself is given a margin on top.
func (rc *RemoteCluster) DrainNode(node int, timeout time.Duration) error {
	if rc.closed.Load() {
		return errClosed
	}
	m := rc.member(node)
	if m == nil {
		return fmt.Errorf("wire: no member %d in a cluster of %d", node, rc.Size())
	}
	if m.left.Load() {
		return nil
	}
	if timeout <= 0 {
		timeout = drainTimeout
	}
	// A connection of its own, not m.ctl: the daemon answers a drain only
	// when the evacuation ends, and on the shared connection every other
	// job's round trip to this member would sit behind that reply — until
	// one timed out, tore the connection down and took the drain's own
	// reply with it.
	c := &ctlConn{addr: m.addr}
	defer c.close()
	reply, err := c.roundTrip(&envelope{Kind: msgDrain, Count: int(timeout / time.Millisecond)}, timeout+controlTimeout)
	if err != nil {
		return fmt.Errorf("wire: drain node %d (%s): %w", node, m.addr, err)
	}
	if reply.Kind != msgOK {
		return fmt.Errorf("wire: drain node %d: unexpected %s reply", node, reply.Kind)
	}
	if reply.Err != "" {
		return fmt.Errorf("wire: drain node %d: %s", node, reply.Err)
	}
	m.left.Store(true)
	return nil
}

// CancelJob marks a job cancelled on every reachable member and records
// the mark locally, so WaitJob can re-deliver it to members that were
// down when the broadcast went out.
func (rc *RemoteCluster) CancelJob(job uint64) {
	if job == 0 {
		return
	}
	rc.mu.Lock()
	rc.cancelled[job] = true
	// A cancel thaws on the daemons (frozen agents must still drain), so
	// the client-side freeze mark lifts with it — WaitJob switches from
	// failing fast to observing the drain.
	delete(rc.frozen, job)
	rc.mu.Unlock()
	rc.broadcast(&envelope{Kind: msgCancel, Job: job})
}

func (rc *RemoteCluster) isCancelled(job uint64) bool {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.cancelled[job]
}

// ReleaseJob forgets a drained job's bookkeeping on every member. An
// unreachable member is settled by the prober when it returns (see
// reclaim); without a prober it holds a stale slice — a bounded leak, not
// a correctness problem.
func (rc *RemoteCluster) ReleaseJob(job uint64) {
	if job == 0 {
		return
	}
	rc.mu.Lock()
	delete(rc.cancelled, job)
	delete(rc.frozen, job)
	rc.mu.Unlock()
	rc.reclaim(&envelope{Kind: msgFree, Job: job})
}

// ClearVarsPrefix deletes prefixed node variables on every member.
func (rc *RemoteCluster) ClearVarsPrefix(prefix string) {
	rc.reclaim(&envelope{Kind: msgClear, Name: prefix})
}

// WaitJob blocks until job's namespace is quiescent — every agent of the
// job finished (or was retired by cancellation) and none of its
// migrations in flight. Other tenants' agents keep the cluster busy
// without disturbing the detection: their events land in their own
// namespaces. A frozen job fails fast with ErrJobFrozen.
func (rc *RemoteCluster) WaitJob(job uint64, timeout time.Duration) error {
	if job == 0 {
		return fmt.Errorf("wire: WaitJob needs a nonzero job id (use Wait for the whole cluster)")
	}
	return rc.wait(job, timeout)
}

// Wait blocks until the whole cluster is quiescent: every agent of every
// namespace finished and no migration in flight.
func (rc *RemoteCluster) Wait(timeout time.Duration) error { return rc.wait(0, timeout) }

// waveState is what the termination detector remembers between snapshot
// waves: the last complete wave's totals, if the last wave was complete.
type waveState struct {
	prev     counters
	havePrev bool
}

func (c counters) balanced() bool { return c.Created == c.Finished && c.Sent == c.Received }

// waveVerdict folds one snapshot wave into the detector's state. done is
// declared in exactly one case — a complete, balanced wave identical to
// the complete wave before it — and an incomplete wave (a member did not
// answer) forgets the previous one, so the two confirming waves are
// always consecutive. pollNow asks for the next wave without a sleep: on
// a balanced edge, a balanced wave whose predecessor was not (or was
// forgotten), the only thing left to do is confirm it, and Mattern's
// argument needs the confirming wave to start after this one ended, not
// some delay later. A balanced wave that follows a different balanced
// one sleeps like an unbalanced one: a job whose counters keep moving
// through balanced states gets one immediate re-poll per edge, never a
// spin.
func waveVerdict(s waveState, cur counters, complete bool) (next waveState, done, pollNow bool) {
	if !complete {
		return waveState{}, false, false
	}
	if cur.balanced() && s.havePrev && cur == s.prev {
		return s, true, false
	}
	onEdge := cur.balanced() && !(s.havePrev && s.prev.balanced())
	return waveState{prev: cur, havePrev: true}, false, onEdge
}

// The detector's sleep between waves that gave it nothing to confirm
// starts at waitBackoffMin, because a serving job is often done within a
// millisecond or two of the wait starting and a wave costs one small
// round trip per member, and doubles to waitBackoffMax — the fixed period
// the detector used to poll at, so a long job is polled no more often
// than it ever was.
const (
	waitBackoffMin = 250 * time.Microsecond
	waitBackoffMax = 5 * time.Millisecond
)

// wait is the termination detector (job 0 = the cluster-wide totals):
// Mattern's four-counter method over remote snapshots, declaring
// quiescence on two consecutive identical complete snapshots with
// created == finished and sent == received (waveVerdict). A balanced
// first wave is confirmed by a second one started as soon as the first
// has ended; any other wave is followed by a doubling backoff. Because a
// daemon counts a migration sent only when the receiver acknowledged
// checkpointing it, and counts received only for deduplicated accepts,
// the detection stays correct under dropped, duplicated, and replayed
// hops; and because an unfinished agent always holds a checkpoint
// (created > finished), a killed daemon holding agents keeps the snapshot
// unbalanced once it is back. Until then its round is incomplete and
// discarded — the checkpointed agents on a dead host keep the job alive
// until a restarted daemon answers for them. Departed members are
// skipped: their history lives on in the survivor that absorbed it. Each
// round also re-delivers the job's cancellation mark (if any) to every
// member, so a host that was down for the CancelJob broadcast still
// absorbs the job's agents after it returns. It returns the first daemon
// error an in-process host reported, or an error on timeout.
func (rc *RemoteCluster) wait(job uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var state waveState
	backoff := waitBackoffMin
	for {
		select {
		case err := <-rc.errs:
			return err
		default:
		}
		if rc.jobFrozen(job) {
			return ErrJobFrozen
		}
		cur, complete := rc.snapshotJob(job)
		var done, pollNow bool
		if state, done, pollNow = waveVerdict(state, cur, complete); done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: job %d termination timeout after %v (created %d, finished %d, sent %d, received %d, complete %v)",
				job, timeout, cur.Created, cur.Finished, cur.Sent, cur.Received, complete)
		}
		if rc.isCancelled(job) {
			rc.broadcast(&envelope{Kind: msgCancel, Job: job})
		}
		if !pollNow {
			time.Sleep(backoff)
			if backoff *= 2; backoff > waitBackoffMax {
				backoff = waitBackoffMax
			}
		}
		if rc.closed.Load() {
			// Every member fails its round trip from here on, so no round
			// can complete: say so instead of polling to the deadline.
			return errClosed
		}
	}
}

// snapshotJob polls every non-departed member's counter slice for job,
// all members at once; complete is false when any member did not answer.
func (rc *RemoteCluster) snapshotJob(job uint64) (total counters, complete bool) {
	var mu sync.Mutex
	complete = true
	eachMember(rc.snapshotMembers(), func(_ int, m *remoteMember) {
		reply, err := m.ctl.roundTrip(&envelope{Kind: msgSnapshot, Job: job}, controlTimeout)
		mu.Lock()
		defer mu.Unlock()
		if err != nil || reply.Kind != msgCounters {
			complete = false
			return
		}
		total.add(reply.Counters)
	})
	if complete {
		rc.met.waitRounds.Inc()
	}
	return total, complete
}

// Close stops the prober and drops the control connections. It is
// idempotent and safe to call concurrently; every call returns only
// after the prober goroutine and every connection's reader goroutine
// have exited and the connections are closed,
// and any control round trip after (or racing) Close fails instead of
// redialing a closed connection back open. The daemons keep running;
// Shutdown stops them too.
func (rc *RemoteCluster) Close() { rc.close(false) }

// Shutdown asks every member daemon to stop serving (best-effort),
// drained tombstone shells included, then closes the client. The prober
// stops first, so no shutdown is read as a death. On a closed client it
// does nothing: its connections are gone.
func (rc *RemoteCluster) Shutdown() { rc.close(true) }

func (rc *RemoteCluster) close(shutdown bool) {
	rc.closeOnce.Do(func() {
		rc.closed.Store(true)
		if rc.hbStop != nil {
			close(rc.hbStop)
			<-rc.hbDone
		}
		members := rc.snapshotMembers()
		if shutdown {
			for _, m := range members {
				m.ctl.roundTrip(&envelope{Kind: msgShutdown}, controlTimeout)
			}
		}
		for _, m := range members {
			m.ctl.close()
			m.probe.close()
		}
	})
}

// ShutdownNode asks one member daemon to stop serving (best-effort) —
// the follow-up to Drain that lets an operator retire a drained
// tombstone shell's process without touching the rest of the cluster.
func (rc *RemoteCluster) ShutdownNode(node int) error {
	if rc.closed.Load() {
		return errClosed
	}
	m := rc.member(node)
	if m == nil {
		return fmt.Errorf("wire: no member %d in a cluster of %d", node, rc.Size())
	}
	m.ctl.roundTrip(&envelope{Kind: msgShutdown}, controlTimeout)
	return nil
}
