package wire

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/navp"
)

// errKilled is the panic sentinel that unwinds a behavior step when its
// daemon incarnation dies underneath it. The step's agent is checkpointed
// at its last hop boundary, so the restarted daemon replays it; the
// zombie unwinding here is silent.
var errKilled = errors.New("wire: daemon incarnation killed")

// daemon is one incarnation of a node's MESSENGERS daemon: a TCP
// listener, cached peer links, and a pool of running agent steps. The
// durable node identity — variables, events, checkpoints, counters —
// lives in the shared nodeState; a daemon incarnation is disposable and
// a kill discards only what the checkpoint protocol can reconstruct.
type daemon struct {
	id      int
	members *membership // node id → address, shared across incarnations
	ln      net.Listener
	node    *nodeState
	opts    *Options // cluster-wide knobs, read-only
	errs    chan error
	sink    *traceSink

	dead     atomic.Bool
	linkMu   sync.Mutex
	links    map[int]*link
	inbound  map[net.Conn]struct{}
	wg       sync.WaitGroup // running agent steps
	stopped  chan struct{}
	stopOnce sync.Once
}

func newDaemon(id int, members *membership, ln net.Listener, node *nodeState, opts *Options, errs chan error, sink *traceSink) *daemon {
	return &daemon{
		id: id, members: members, ln: ln, node: node, opts: opts,
		errs: errs, sink: sink,
		links: map[int]*link{}, inbound: map[net.Conn]struct{}{},
		stopped: make(chan struct{}),
	}
}

// serve accepts connections until the incarnation terminates.
func (d *daemon) serve() {
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			select {
			case <-d.stopped:
				return
			default:
				d.fail(fmt.Errorf("wire: daemon %d accept: %w", d.id, err))
				return
			}
		}
		d.linkMu.Lock()
		if d.dead.Load() {
			d.linkMu.Unlock()
			conn.Close()
			return
		}
		d.inbound[conn] = struct{}{}
		d.linkMu.Unlock()
		d.node.met.inboundConns.Add(1)
		go d.handle(conn)
	}
}

// replier writes reply envelopes back on one inbound connection. It is
// the only path by which a daemon externalizes the outcome of inbound
// traffic — hop acks, msgOK control replies, snapshots — so the
// persist-before-acknowledge ordering (sync the node image, then send)
// is a property of where send is called, and navplint's syncorder
// analyzer checks exactly that: send on a path carrying an unsynced
// durable mutation is a diagnostic.
type replier struct {
	conn net.Conn
	d    *daemon
}

// send encodes env and writes it on the connection, reporting whether
// the peer can still hear us. Encode failures are daemon-fatal (they
// mean a malformed reply, not a broken peer); write failures just end
// the connection — the peer redials and retries.
func (rp *replier) send(env *envelope) bool {
	f, err := encodeFrame(env)
	if err != nil {
		rp.d.fail(err)
		return false
	}
	_, err = rp.conn.Write(f.bytes())
	f.release()
	return err == nil
}

// handle serves one inbound connection. Any read or decode error drops
// the connection: the peer redials and the retry protocol re-delivers
// whatever was in flight.
func (d *daemon) handle(conn net.Conn) {
	// Deregister on exit: a long-lived daemon must not accumulate dead
	// net.Conns in d.inbound. The delete races an in-progress terminate
	// harmlessly — both run under linkMu, deleting a missing key is a
	// no-op, and closing a closed conn just returns an error.
	defer func() {
		d.linkMu.Lock()
		delete(d.inbound, conn)
		d.linkMu.Unlock()
		conn.Close()
		d.node.met.inboundConns.Add(-1)
	}()
	r := bufio.NewReader(conn)
	rp := &replier{conn: conn, d: d}
	for {
		env, err := readFrame(r)
		if err != nil {
			return // peer closed, or a corrupt frame desynced the stream
		}
		switch env.Kind {
		case msgAgent:
			msg := env.Agent
			dup, arrivals, err := d.node.accept(msg)
			if errors.Is(err, errEvacuated) {
				// Tombstone shell (DESIGN.md §16): an evacuated node keeps
				// serving so senders can settle, but accepts nothing fresh.
				// (Known duplicates fall through accept's dup guard above
				// the evacuated check and get their normal Dup ack — the
				// ack a sender may have lost before the drain, without
				// which its retry loop never retires the checkpoint.) The
				// Refused ack is the sender's proof that no copy of the
				// agent exists here, which is what makes its reroute to a
				// live member exactly-once safe. The refusal itself
				// mutates nothing, so this sync finds the mutation
				// sequence already covered and writes nothing (pinned by
				// TestDuplicateAndRefusedFramesWriteNothing); it is here,
				// like the dup-ack sync below, so the
				// persist-before-acknowledge ordering holds on every
				// path of this loop, not just the accepting ones.
				d.node.met.framesRefused.Inc()
				if err := d.node.sync(); err != nil {
					d.fail(err)
					return
				}
				if !rp.send(&envelope{Kind: msgAck, Ack: ackMsg{ID: msg.ID, Hop: msg.Hop, Refused: true}}) {
					return
				}
				continue
			}
			if err != nil {
				d.fail(err)
				return
			}
			// Persist the acceptance BEFORE acknowledging it: once the
			// ack is out, the sender retires its checkpoint and this
			// node owns the only durable copy of the agent. The sync is
			// unconditional so the persist-before-acknowledge ordering
			// holds on every path, not just the ones that happen to
			// correlate with !dup; a duplicate dirtied nothing, and a
			// sync with nothing newer than the log's last batch returns
			// without a write.
			if err := d.node.sync(); err != nil {
				d.fail(err)
				return
			}
			acked := rp.send(&envelope{Kind: msgAck, Ack: ackMsg{ID: msg.ID, Hop: msg.Hop, Dup: dup}})
			if dup {
				// Already accepted earlier: the original acceptance
				// dispatched the agent (or a checkpoint replay will), so a
				// redelivery only needs the acknowledgement.
				if !acked {
					return
				}
				continue
			}
			if d.opts.Fault.KillNow(d.id, arrivals) {
				d.kill()
				return
			}
			// Dispatch even when the ack reply failed: a broken connection
			// means the sender will retransmit and be told "duplicate" —
			// but this daemon is alive and now owns the only dispatchable
			// copy of the agent. Skipping dispatch here would orphan a
			// checkpointed agent on a healthy node.
			d.startStep(msg, false)
			if !acked {
				return
			}
		case msgSnapshot:
			c := d.node.counters()
			if env.Job != 0 {
				c = d.node.countersForJob(env.Job)
			}
			if !rp.send(&envelope{Kind: msgCounters, Counters: c, Job: env.Job}) {
				return
			}
		case msgPing:
			if !rp.send(&envelope{Kind: msgPong}) {
				return
			}
		case msgShutdown:
			d.terminate()
			return
		default:
			if !d.handleControl(env, rp) {
				return
			}
		}
	}
}

// handleControl serves the membership and coordinator-control kinds on
// an inbound connection. It reports whether the connection should keep
// being served. Control mutations are persisted before the reply leaves
// (same ordering contract as the hop ack).
func (d *daemon) handleControl(env *envelope, rp *replier) bool {
	ok := func(err error) bool {
		out := &envelope{Kind: msgOK}
		if err != nil {
			out.Err = err.Error()
		}
		return rp.send(out)
	}
	synced := func() error { return d.node.sync() }
	// thaw lifts job's freeze mark, persists that (and whatever mutation
	// the caller made first), re-dispatches the agents the mark had
	// parked, and acknowledges.
	thaw := func(job uint64) bool {
		thawed := d.node.thaw(job)
		if err := synced(); err != nil {
			return ok(err)
		}
		for _, p := range thawed {
			d.startStep(p.msg, p.replay)
		}
		return ok(nil)
	}
	switch env.Kind {
	case msgJoin:
		if env.Addr == "" { // observer: just report the membership
			return rp.send(&envelope{Kind: msgMembers, Members: d.members.list(), You: -1})
		}
		// Id assignment is serialized through node 0. If every member
		// handed out len(addrs) itself, two joins racing through
		// different members would claim the same index, and the
		// conflicting msgMembers broadcasts would be rejected wholesale
		// (update never remaps), splitting the cluster's view for good.
		// A join dialed at any other member is forwarded — node 0's
		// membership mutex is the single allocator — and the grown list
		// is adopted here before relaying the reply, so the joiner's
		// next hop through this member already resolves.
		if d.id != 0 {
			fwd, err := d.forwardJoin(env.Addr)
			if err != nil {
				return ok(fmt.Errorf("wire: daemon %d forward join to node 0: %w", d.id, err))
			}
			return rp.send(fwd)
		}
		id, err := d.members.add(env.Addr)
		if err != nil {
			return ok(err)
		}
		members := d.members.list()
		d.broadcastMembers(members)
		return rp.send(&envelope{Kind: msgMembers, Members: members, You: id})
	case msgMembers:
		if err := d.members.update(env.Members); err != nil {
			return ok(err)
		}
		return ok(nil)
	case msgLeave:
		if env.Node == d.id {
			return ok(fmt.Errorf("wire: daemon %d refuses its own departure notice", d.id))
		}
		d.members.leave(env.Node)
		return ok(nil)
	case msgInject:
		// injectLocal persists before dispatch, so the ok reply implies
		// the injection is durable.
		return ok(d.injectLocal(env.Job, env.Agent.Behavior, env.Agent.State))
	case msgSetVar:
		var v any
		if env.Value != nil {
			v = env.Value.V
		}
		d.node.vars.set(env.Name, v)
		return ok(synced())
	case msgGetVar:
		return rp.send(&envelope{Kind: msgVar, Value: &stateBox{V: d.node.vars.get(env.Name)}})
	case msgCancel:
		d.node.cancels.cancel(env.Job)
		// A cancelled job's parked agents would otherwise sleep through
		// their own cancellation: thaw them so the dispatch prologue's
		// cancel check absorbs each one and the namespace can quiesce.
		return thaw(env.Job)
	case msgFree:
		d.node.releaseJob(env.Job)
		d.node.cancels.release(env.Job)
		return thaw(env.Job)
	case msgClear:
		d.node.vars.deletePrefix(env.Name)
		return ok(synced())
	case msgMigrate:
		// Pin the marks and persist them BEFORE the reply: the count the
		// coordinator sees is a durable promise, and a crashed daemon's
		// replay honors the same destinations. Marked agents that are
		// parked are nudged back through dispatch, where the prologue
		// ships them.
		marked := d.node.markMigrations(env.Node, env.Job, env.Count)
		if err := synced(); err != nil {
			return ok(err)
		}
		for _, id := range marked {
			if p, wasParked := d.node.takeParked(id); wasParked {
				d.startStep(p.msg, p.replay)
			}
		}
		return rp.send(&envelope{Kind: msgMigrated, Count: len(marked)})
	case msgFreeze:
		d.node.freeze(env.Job)
		return ok(synced())
	case msgThaw:
		return thaw(env.Job)
	case msgDrain:
		timeout := d.opts.DrainTimeout
		if env.Count > 0 {
			timeout = time.Duration(env.Count) * time.Millisecond
		}
		// A failed drain can stop between its state-machine syncs (a
		// timeout mid-evacuation, say); persist whatever point it
		// reached before the reply externalizes the verdict, so a
		// retried drain resumes from the durable truth.
		err := d.drain(timeout)
		if serr := d.node.sync(); err == nil {
			err = serr
		}
		return ok(err)
	case msgAbsorb:
		// Absorb is dup-safe at the nodeState layer (the absorbed set),
		// so a draining peer that crashed between our reply and its
		// drained-flag sync can retry against the same pinned target.
		d.node.absorb(env.Node, env.Counters, env.PerJob)
		return ok(synced())
	default:
		// Reply kinds (msgAck et al.) arriving on an inbound connection
		// are protocol noise; drop the connection.
		return false
	}
}

// forwardJoin relays a join request to node 0, the cluster's single id
// allocator, and adopts the grown membership list from the reply. It
// requires node 0 live: joins are unavailable while the allocator is
// down (hops, control traffic, and static-seed starts are unaffected),
// which is the price of never handing two joiners the same index.
func (d *daemon) forwardJoin(joinAddr string) (*envelope, error) {
	addr0, err := d.members.addr(0)
	if err != nil {
		return nil, err
	}
	c := &ctlConn{addr: addr0}
	defer c.close()
	rep, err := c.roundTrip(&envelope{Kind: msgJoin, Addr: joinAddr}, d.opts.AckTimeout)
	if err != nil {
		return nil, err
	}
	if rep.Kind == msgMembers {
		if err := d.members.update(rep.Members); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// broadcastMembers pushes an updated membership list to every other
// member, best-effort and asynchronous: a member that misses the
// broadcast learns the list when the joiner's first hop dials it, or on
// the next join. The joiner itself gets the list in its join reply.
func (d *daemon) broadcastMembers(members []string) {
	for i, addr := range members {
		if i == d.id || addr == "" {
			continue
		}
		addr := addr
		go func() {
			c := &ctlConn{addr: addr}
			defer c.close()
			c.roundTrip(&envelope{Kind: msgMembers, Members: members, You: -1}, d.opts.AckTimeout)
		}()
	}
}

// drain evacuates this node and retires it from the cluster: every
// resident agent is shipped to a live member as a synthetic hop, the
// node's counter history is absorbed by one pinned survivor, and a
// leave notice is broadcast. The state machine is sequenced on disk —
// draining before any ship, evacuated before the absorb, drained only
// after the absorb target's durable acknowledgement — so a kill -9 at
// any point resumes the drain where it stopped instead of losing an
// agent or double-counting history. After a completed drain the daemon
// keeps serving as a tombstone shell (see the msgAgent refusal path)
// until it receives msgShutdown.
func (d *daemon) drain(timeout time.Duration) error {
	if d.node.isDrained() {
		d.broadcastLeave() // the crash may have eaten the first broadcast
		return nil
	}
	d.node.setDraining(true)
	if err := d.node.sync(); err != nil {
		return err
	}
	deadline := time.Now().Add(timeout)
	for !d.node.isEvacuated() {
		// Push parked agents back through dispatch; the draining
		// prologue pins a destination for each and ships it. Agents with
		// running steps evacuate themselves at their next dispatch
		// boundary the same way.
		for _, p := range d.node.thaw(0) {
			d.startStep(p.msg, p.replay)
		}
		if n := d.node.pendingCheckpoints(); n > 0 {
			if time.Now().After(deadline) {
				return fmt.Errorf("wire: daemon %d drain timed out with %d resident agents", d.id, n)
			}
			if !d.sleep(2 * time.Millisecond) {
				return errKilled
			}
			continue
		}
		d.node.sweepStaleMarks()
		d.node.setEvacuated(true)
		if err := d.node.sync(); err != nil {
			return err
		}
		// Acceptance is fenced by the evacuated flag under the same
		// mutex (see accept), so any accept that slipped in before the
		// flag landed is visible right here — back out and re-evacuate.
		if d.node.pendingCheckpoints() > 0 {
			d.node.setEvacuated(false)
			if err := d.node.sync(); err != nil {
				return err
			}
		}
	}
	// Hand the counter history to ONE survivor, pinned durably before
	// the first send: a crashed drain retries the same target, and the
	// target's absorbed-set makes the retry idempotent. Handing it to a
	// second node would double-count this node's history in every
	// termination snapshot.
	target := d.node.pinAbsorbTarget(func() int { return d.members.nextLive(d.id, d.id) })
	if target < 0 {
		return fmt.Errorf("wire: daemon %d drain: no live member to absorb counters", d.id)
	}
	if err := d.node.sync(); err != nil {
		return err
	}
	total, perJob := d.node.exportCounters()
	backoff := d.opts.RetryBackoff
	for {
		err := d.absorbInto(target, total, perJob)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("wire: daemon %d drain: absorb into node %d: %w", d.id, target, err)
		}
		if !d.sleep(backoff) {
			return errKilled
		}
		if backoff *= 2; backoff > d.opts.MaxRetryBackoff {
			backoff = d.opts.MaxRetryBackoff
		}
	}
	d.node.setDrained()
	if err := d.node.sync(); err != nil {
		return err
	}
	d.node.met.drains.Inc()
	d.broadcastLeave()
	return nil
}

// absorbInto performs one msgAbsorb round trip against the pinned
// survivor.
func (d *daemon) absorbInto(target int, total counters, perJob map[uint64]counters) error {
	addr, err := d.members.addrAny(target)
	if err != nil {
		return err
	}
	c := &ctlConn{addr: addr}
	defer c.close()
	rep, err := c.roundTrip(&envelope{Kind: msgAbsorb, Node: d.id, Counters: total, PerJob: perJob}, d.opts.AckTimeout)
	if err != nil {
		return err
	}
	if rep.Kind != msgOK {
		return fmt.Errorf("wire: absorb reply kind %q", rep.Kind)
	}
	if rep.Err != "" {
		return errors.New(rep.Err)
	}
	return nil
}

// broadcastLeave announces this node's departure to every other member,
// best-effort and asynchronous like broadcastMembers: a member that
// misses it learns on its next dial here (refused frames) or from a
// peer's tombstone.
func (d *daemon) broadcastLeave() {
	for i, addr := range d.members.list() {
		if i == d.id || addr == "" {
			continue
		}
		addr := addr
		go func() {
			c := &ctlConn{addr: addr}
			defer c.close()
			c.roundTrip(&envelope{Kind: msgLeave, Node: d.id}, d.opts.AckTimeout)
		}()
	}
}

// injectLocal starts a new agent on this daemon — injection is local, as
// in MESSENGERS. The agent is checkpointed (and, on a persistent host,
// synced to disk) before dispatch, so injection into a dying daemon is
// not lost: the restart replays it. job is the namespace the agent (and
// everything it injects) is accounted to. The returned error reports
// encode or persistence failures; in-process callers forward it to
// d.fail, remote injection returns it to the coordinator.
func (d *daemon) injectLocal(job uint64, behaviorName string, state any) error {
	msg := &agentMsg{ID: d.node.newAgentID(), Job: job, Behavior: behaviorName, State: state}
	// Sync unconditionally, even when inject failed: a failed injection
	// can still have advanced durable counters before erroring, and the
	// coordinator's error reply is an acknowledgement like any other —
	// nothing is externalized before the image is safe on disk.
	arrivals, err := d.node.inject(msg)
	if serr := d.node.sync(); err == nil {
		err = serr
	}
	if errors.Is(err, errEvacuated) {
		// Not a daemon failure: the caller (the coordinator's inject
		// path) re-places the agent on a live member.
		return err
	}
	if err != nil {
		d.fail(err)
		return err
	}
	if d.opts.Fault.KillNow(d.id, arrivals) {
		d.kill()
		return nil
	}
	if d.dead.Load() {
		return nil // the checkpoint replays on the next incarnation
	}
	d.startStep(msg, false)
	return nil
}

// startStep runs one behavior step in its own goroutine; the step may
// block on local events without stalling the daemon. replay marks a
// dispatch from checkpoint replay after a crash rather than a fresh
// acceptance, injection, or local rehop.
func (d *daemon) startStep(msg *agentMsg, replay bool) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		defer func() {
			if r := recover(); r != nil {
				if r == errKilled {
					return // killed mid-step; checkpoint replay redoes it
				}
				d.fail(fmt.Errorf("wire: behavior %q panicked on node %d: %v", msg.Behavior, d.id, r))
			}
		}()
		if !replay && msg.Job != 0 && d.node.cancels.cancelled(msg.Job) {
			// The job was cancelled: retire the agent here instead of
			// running its step. This is how cancellation propagates
			// through hops — every surviving agent of the namespace is
			// absorbed at its next fresh dispatch, and the finished count
			// it earns keeps the job's termination snapshot balanced so
			// WaitJob observes the drained namespace.
			//
			// A replayed checkpoint must NOT be retired here: its hop-out
			// may already have been delivered before the crash, in which
			// case the downstream node owns (and will retire) the agent,
			// and retiring it here too would double-count finished and
			// leave sent != received — an imbalance that never heals. The
			// replay instead re-runs the step and re-sends; the normal
			// duplicate-ack path then settles ownership, and the agent is
			// absorbed wherever it is next freshly dispatched.
			if d.node.complete(msg.ID, msg.Hop) {
				d.syncLazily()
			}
			return
		}
		// Elasticity interception (DESIGN.md §16), strictly after the
		// cancel check (a cancelled agent is absorbed, never shipped) and
		// strictly before the freeze park (a marked agent leaves even if
		// its job is frozen — the destination's own freeze mark re-parks
		// it there). Each branch ships the agent as a synthetic hop.
		if dst, ok := d.node.migrateTarget(msg.ID); ok && dst != d.id {
			// The pin was persisted before the msgMigrated reply (or by a
			// replayed image); ship without re-syncing.
			d.migrateOut(msg, dst, "migrate")
			return
		}
		if d.node.isDraining() {
			// A draining node evacuates every agent at its dispatch
			// boundary. Pin the destination and persist it BEFORE the
			// ship: a crashed drain replays this dispatch, and the pin is
			// what keeps the replay from choosing a different survivor.
			dst := d.members.nextLive(d.id, d.id)
			if dst < 0 {
				d.fail(fmt.Errorf("wire: daemon %d draining with no live member to evacuate to", d.id))
				return
			}
			dst = d.node.assignMigration(msg.ID, dst)
			if err := d.node.sync(); err != nil {
				d.fail(err)
				return
			}
			d.migrateOut(msg, dst, "evacuate")
			return
		}
		if msg.Job != 0 && d.node.frozenJob(msg.Job) {
			d.node.park(msg, replay)
			return
		}
		b, err := behavior(msg.Behavior)
		if err != nil {
			d.fail(err)
			return
		}
		v := b(&Ctx{daemon: d, agent: msg})
		if d.dead.Load() {
			return // zombie step of a killed incarnation; replay supersedes it
		}
		switch {
		case v.stop:
			if d.node.complete(msg.ID, msg.Hop) {
				d.syncLazily()
			}
		case v.hop && v.dst == d.id:
			// Local hop: free, immediate re-dispatch (the daemon
			// short-cut the paper relies on), but still a checkpoint
			// boundary.
			if d.node.rehop(msg) {
				d.syncLazily()
				d.startStep(msg, false)
			}
		case v.hop:
			// A migration mark that raced this running step is void — the
			// step's own hop wins. The clearance must be durable BEFORE the
			// frame ships: a crashed-and-replayed sender that resurrected
			// the pin would migrate (id, h+1) to a second destination while
			// the first may already have accepted this send.
			if _, marked := d.node.migrateTarget(msg.ID); marked {
				d.node.clearMigration(msg.ID)
				if err := d.node.sync(); err != nil {
					d.fail(err)
					return
				}
			}
			prev := msg.Hop
			out := &agentMsg{ID: msg.ID, Hop: msg.Hop + 1, Job: msg.Job, Behavior: msg.Behavior, State: msg.State}
			d.deliver(v.dst, out, prev)
		default:
			d.fail(fmt.Errorf("wire: behavior %q returned no verdict; use HopTo or Done", msg.Behavior))
		}
	}()
}

// migrateOut ships a checkpointed agent to dst as a synthetic hop: the
// step is skipped, the state travels unchanged at hop+1 through the
// ordinary delivery path, and every exactly-once property — the
// destination's dedup accept, the hop-guarded checkpoint retirement
// here, persist-before-ack, retry, kill -9 recovery — is the one the
// normal hop already has. The caller has persisted the destination pin.
func (d *daemon) migrateOut(msg *agentMsg, dst int, note string) {
	prev := msg.Hop
	out := &agentMsg{ID: msg.ID, Hop: msg.Hop + 1, Job: msg.Job, Behavior: msg.Behavior, State: msg.State}
	if d.deliver(dst, out, prev) {
		d.node.met.agentsMigrated.Inc()
		d.sink.record(navp.TraceMigrate, msg.Job, msg.Behavior, d.id, dst, 0, note)
	}
}

// deliver ships one hop frame to a peer with at-least-once semantics:
// retry with exponential backoff until the destination acknowledges that
// it has checkpointed the agent, then retire our own checkpoint exactly
// once; it reports whether an acknowledgement arrived. The fault
// injector sits right here — drops suppress the write, duplicates repeat
// it, delays precede it — so every chaos scenario exercises the same
// code path real network trouble would.
//
// Two acknowledgement outcomes divert the hop instead of settling it: a
// Refused ack (the destination is an evacuated tombstone shell that
// provably did not accept), and a dial failure to a member that has
// announced its departure. Both reroute the frame to the next live
// member — after pinning that choice in the persisted image, so a
// crashed-and-replayed sender re-ships to the same stand-in.
func (d *daemon) deliver(dst int, msg *agentMsg, prevHop uint64) bool {
	if rr, ok := d.node.rerouteFor(msg.ID); ok {
		// A pinned reroute governs every (re)send of the in-flight hop,
		// even when the original destination looks reachable again.
		dst = rr
	}
	f, err := encodeFrame(&envelope{Kind: msgAgent, Agent: msg})
	if err != nil {
		d.fail(err)
		return false
	}
	// The frame is retained across retries (retransmissions are
	// byte-for-byte) and recycled when delivery ends either way.
	defer f.release()
	frame := f.bytes()
	// Fold the agent identity into the fault-decision sequence number so
	// a frame's fate is a pure function of what it carries.
	seq := fault.Seq(msg.ID, msg.Hop)
	met := d.node.met
	backoff := d.opts.RetryBackoff
	for attempt := uint64(0); ; attempt++ {
		if d.dead.Load() {
			return false
		}
		dec := d.opts.Fault.Decide(d.id, dst, seq, attempt)
		if dec.Delay > 0 {
			if !d.sleep(secondsToDuration(dec.Delay)) {
				return false
			}
		}
		var ackCh chan ackMsg
		var l *link
		var sentAt time.Time
		var sendErr error
		if dec.Drop {
			met.framesDropped.Inc()
			d.sink.record(navp.TraceDrop, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)), "")
		} else {
			if l, sendErr = d.link(dst); sendErr == nil {
				ackCh = l.expect(msg.ID, msg.Hop)
				sentAt = time.Now()
				sendErr = l.writeFrame(frame)
				if sendErr == nil {
					met.framesSent.Inc()
					met.bytesSent.Add(int64(len(frame)))
				}
				for i := 0; sendErr == nil && i < dec.Dup; i++ {
					sendErr = l.writeFrame(frame)
					if sendErr == nil {
						met.framesSent.Inc()
						met.bytesSent.Add(int64(len(frame)))
					}
				}
			}
			if sendErr != nil {
				if l != nil {
					l.cancel(msg.ID, msg.Hop)
					d.dropLink(dst, l)
				}
				ackCh = nil
			}
		}
		if ackCh != nil {
			var ack ackMsg
			var acked, linkDown bool
			select {
			case ack = <-ackCh:
				acked = true
			case <-l.done:
				// The link died under us (peer reset, redial elsewhere).
				// There is no ack coming on this connection; waiting out
				// the full AckTimeout would just stall the hop.
				linkDown = true
			case <-time.After(d.opts.AckTimeout):
			case <-d.stopped:
			}
			l.cancel(msg.ID, msg.Hop)
			if acked && ack.Refused {
				// The destination is an evacuated shell that provably did
				// not accept the frame; divert to a live stand-in.
				if nd := d.reroute(msg, dst); nd >= 0 {
					dst = nd
					continue
				}
				return false
			}
			if acked {
				met.framesAcked.Inc()
				met.ackLatency.Observe(time.Since(sentAt).Microseconds())
				if d.node.ackDelivered(msg.ID, prevHop) {
					d.syncLazily()
				}
				d.sink.record(navp.TraceHop, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)), "")
				return true
			}
			select {
			case <-d.stopped:
				return false
			default:
			}
			if linkDown {
				d.dropLink(dst, l)
				met.framesRetried.Inc()
				d.sink.record(navp.TraceRetry, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)),
					fmt.Sprintf("attempt %d", attempt+2))
				continue // retry immediately over a fresh dial
			}
		}
		if sendErr != nil && d.members.left(dst) {
			// The destination announced its departure and no longer even
			// dials. Its drain evacuated every resident agent before the
			// leave broadcast, so this frame cannot have been accepted
			// there — and even in the worst interleaving, a re-executed
			// step from the hop boundary is what the replay contract
			// already tolerates. Divert to a live stand-in.
			if nd := d.reroute(msg, dst); nd >= 0 {
				dst = nd
				continue
			}
			return false
		}
		met.framesRetried.Inc()
		d.sink.record(navp.TraceRetry, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)),
			fmt.Sprintf("attempt %d", attempt+2))
		if !d.sleep(backoff) {
			return false
		}
		if backoff *= 2; backoff > d.opts.MaxRetryBackoff {
			backoff = d.opts.MaxRetryBackoff
			met.backoffCeiling.Inc()
		}
	}
}

// reroute pins the next live member (excluding the failed destination)
// as the stand-in for an agent's in-flight hop, persists the pin, and
// returns it — or -1 when no live member exists or the pin cannot be
// made durable, in which cases the hop is abandoned to checkpoint
// replay. Overwriting an earlier pin is safe here and only here: both
// call sites hold proof the failed destination never accepted the frame.
func (d *daemon) reroute(msg *agentMsg, failed int) int {
	nd := d.members.nextLive(failed, failed)
	if nd < 0 {
		d.fail(fmt.Errorf("wire: daemon %d has no live member to reroute agent %d around node %d", d.id, msg.ID, failed))
		return -1
	}
	d.node.pinReroute(msg.ID, nd)
	if err := d.node.sync(); err != nil {
		d.fail(err)
		return -1
	}
	d.node.met.agentsRerouted.Inc()
	d.sink.record(navp.TraceMigrate, msg.Job, msg.Behavior, d.id, nd, 0,
		fmt.Sprintf("reroute around %d", failed))
	return nd
}

// syncLazily persists what changed after an internal transition
// (checkpoint retirement, completion, local rehop). Unlike the
// pre-acknowledgement sync these are promptness-only — a crash that
// loses one merely re-runs a step from its hop boundary — but a
// persistence failure is still a loud one.
func (d *daemon) syncLazily() {
	if err := d.node.sync(); err != nil {
		d.fail(err)
	}
}

// sleep waits for dur or until the incarnation terminates; it reports
// whether the full duration elapsed.
func (d *daemon) sleep(dur time.Duration) bool {
	if dur <= 0 {
		return !d.dead.Load()
	}
	select {
	case <-time.After(dur):
		return true
	case <-d.stopped:
		return false
	}
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}

// link returns the cached outbound link to peer dst, dialing if needed.
// The dial happens OUTSIDE linkMu: holding the lock across a dial to one
// slow or dead peer would stall every sender to every other peer (and
// serve's inbound registration, and terminate) for up to AckTimeout.
// Concurrent callers may both dial; the loser closes its connection and
// adopts the winner's link, so the cache still holds one link per peer.
func (d *daemon) link(dst int) (*link, error) {
	d.linkMu.Lock()
	if d.dead.Load() {
		d.linkMu.Unlock()
		return nil, errKilled
	}
	if l, ok := d.links[dst]; ok {
		d.linkMu.Unlock()
		return l, nil
	}
	d.linkMu.Unlock()

	// addrAny, not addr: departed members are dialed on purpose — their
	// tombstone shells settle duplicate acks and refuse fresh frames,
	// and only a refusal or a failed dial licenses a reroute.
	addr, err := d.members.addrAny(dst)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialTimeout("tcp", addr, d.opts.AckTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: daemon %d dial %d: %w", d.id, dst, err)
	}

	d.linkMu.Lock()
	if d.dead.Load() {
		d.linkMu.Unlock()
		conn.Close()
		return nil, errKilled
	}
	if l, ok := d.links[dst]; ok {
		// Lost the dial race; the first link in wins so that expect/ack
		// routing stays on one connection per peer.
		d.linkMu.Unlock()
		conn.Close()
		return l, nil
	}
	l := newLink(conn)
	d.links[dst] = l
	d.linkMu.Unlock()
	d.node.met.linkDials.Inc()
	go l.readAcks()
	return l, nil
}

// dropLink discards a failed link so the next attempt redials.
func (d *daemon) dropLink(dst int, l *link) {
	d.linkMu.Lock()
	if d.links[dst] == l {
		delete(d.links, dst)
	}
	d.linkMu.Unlock()
	l.close()
}

// kill terminates this incarnation abruptly — the fault injector's
// daemon crash. Running steps are abandoned mid-flight; everything they
// would have contributed is reconstructed from the node's checkpoint
// store when the cluster's monitor restarts the daemon.
func (d *daemon) kill() {
	alreadyDead := d.dead.Load()
	d.terminate()
	if !alreadyDead {
		d.sink.record(navp.TraceKill, 0, "", d.id, d.id, 0, "")
	}
}

// terminate closes the listener and every connection and interrupts
// blocked event waits. It is idempotent and serves both graceful
// shutdown (cluster Close after quiescence) and kills.
func (d *daemon) terminate() {
	d.stopOnce.Do(func() {
		d.dead.Store(true)
		close(d.stopped)
		d.ln.Close()
		d.linkMu.Lock()
		for _, l := range d.links {
			l.close()
		}
		for conn := range d.inbound {
			conn.Close()
		}
		d.linkMu.Unlock()
		// Wake blocked Ctx.Wait calls; they unwind via errKilled.
		d.node.events.interruptAll()
	})
}

func (d *daemon) fail(err error) {
	if d.dead.Load() {
		return
	}
	select {
	case d.errs <- err:
	default:
		// The cluster error channel is full; the error vanishes. Count
		// it so a silent failure at least leaves a fingerprint.
		d.node.met.errorsDropped.Inc()
	}
}

// link is one cached outbound connection: a serialized frame writer plus
// a reader goroutine that routes acknowledgement frames back to the
// sender goroutines waiting on them.
type link struct {
	conn net.Conn
	wmu  sync.Mutex

	pmu     sync.Mutex
	pending map[ackKey]chan ackMsg

	// done is closed when the link dies, releasing senders parked in
	// deliver's ack wait so they redial immediately instead of burning
	// the full AckTimeout on a connection that can never answer.
	done      chan struct{}
	closeOnce sync.Once
}

type ackKey struct{ id, hop uint64 }

func newLink(conn net.Conn) *link {
	return &link{conn: conn, pending: map[ackKey]chan ackMsg{}, done: make(chan struct{})}
}

func (l *link) writeFrame(frame []byte) error {
	l.wmu.Lock()
	defer l.wmu.Unlock()
	//lint:ignore lockorder wmu exists to keep concurrent senders' frames from interleaving on the shared connection, so holding it across the write IS the invariant; a stalled peer already stalls every sender to it by definition, and deliver's ack timeout recovers.
	_, err := l.conn.Write(frame)
	return err
}

// expect registers interest in the ack for (id, hop) and returns the
// channel it will arrive on. Re-registering (a retry) reuses the pending
// channel, so an ack for an earlier attempt satisfies a later one.
func (l *link) expect(id, hop uint64) chan ackMsg {
	key := ackKey{id, hop}
	l.pmu.Lock()
	defer l.pmu.Unlock()
	ch, ok := l.pending[key]
	if !ok {
		ch = make(chan ackMsg, 1)
		l.pending[key] = ch
	}
	return ch
}

func (l *link) cancel(id, hop uint64) {
	l.pmu.Lock()
	delete(l.pending, ackKey{id, hop})
	l.pmu.Unlock()
}

// readAcks drains the link's inbound side, delivering acks to waiting
// senders. Any error ends the loop and marks the link dead, so parked
// senders wake and redial instead of waiting out their ack timeout.
func (l *link) readAcks() {
	defer l.close()
	r := bufio.NewReader(l.conn)
	for {
		env, err := readFrame(r)
		if err != nil {
			return
		}
		if env.Kind != msgAck {
			continue
		}
		l.pmu.Lock()
		ch := l.pending[ackKey{env.Ack.ID, env.Ack.Hop}]
		l.pmu.Unlock()
		if ch != nil {
			select {
			case ch <- env.Ack:
			default:
			}
		}
	}
}

func (l *link) close() {
	l.closeOnce.Do(func() { close(l.done) })
	l.conn.Close()
}
