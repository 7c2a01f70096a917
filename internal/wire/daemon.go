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
	"repro/internal/trace"
)

// errKilled is the panic sentinel that unwinds a behavior step when its
// daemon incarnation dies underneath it. The step's agent is checkpointed
// at its last hop boundary, so the restarted daemon replays it; the
// zombie unwinding here is silent.
var errKilled = errors.New("wire: daemon incarnation killed")

// daemon is one incarnation of a node's MESSENGERS daemon: a TCP
// listener, one cached connection per peer, and a pool of running agent
// steps. The durable node identity — variables, events, checkpoints,
// counters — lives in the shared nodeState; a daemon incarnation is
// disposable and a kill discards only what the checkpoint protocol can
// reconstruct.
type daemon struct {
	id      int
	members *membership // node id → address, shared across incarnations
	ln      net.Listener
	node    *nodeState
	opts    *Options // the cluster's chaos layer, read-only
	errs    chan error
	sink    *traceSink

	dead     atomic.Bool
	linkMu   sync.Mutex
	links    map[int]*ctlConn // by peer id; see peer
	inbound  map[net.Conn]struct{}
	wg       sync.WaitGroup // running agent steps
	stopped  chan struct{}
	stopOnce sync.Once
}

func newDaemon(id int, members *membership, ln net.Listener, node *nodeState, opts *Options, errs chan error, sink *traceSink) *daemon {
	return &daemon{
		id: id, members: members, ln: ln, node: node, opts: opts,
		errs: errs, sink: sink,
		links: map[int]*ctlConn{}, inbound: map[net.Conn]struct{}{},
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

// handle serves one inbound connection: every frame is applied to the
// node, then committed. Any read or decode error drops the connection:
// the peer redials and the retry protocol re-delivers whatever was in
// flight.
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
	for {
		env, err := readFrame(r)
		if err != nil {
			return // peer closed, or a corrupt frame desynced the stream
		}
		if !d.commit(d.apply(env), conn) {
			return
		}
	}
}

// effects is what one applied frame asks of the daemon once its change
// is durable: the reply (nil ends the connection unanswered), the agents
// to dispatch after it (a fresh arrival, or those a thaw released),
// whether the fault plan kills this incarnation on the arrival, and a
// daemon-fatal error.
type effects struct {
	reply *envelope
	run   []*parkedAgent
	kill  bool
	err   error
}

// replyOK is the msgOK reply carrying err, if any.
func replyOK(err error) effects {
	out := &envelope{Kind: msgOK}
	if err != nil {
		out.Err = err.Error()
	}
	return effects{reply: out}
}

// apply changes the node as one inbound frame asks and returns the
// frame's effects. It never writes to the connection and never syncs;
// commit syncs, then replies.
func (d *daemon) apply(env *envelope) effects {
	switch env.Kind {
	case msgAgent:
		msg := env.Agent
		dup, arrivals, err := d.node.accept(msg)
		if errors.Is(err, errEvacuated) {
			// Tombstone shell (DESIGN.md §16): an evacuated node keeps
			// serving so senders can settle, but accepts nothing fresh.
			// (Known duplicates fall through accept's dup guard above the
			// evacuated check and get their normal Dup ack — the ack a
			// sender may have lost before the drain, without which its
			// retry loop never retires the checkpoint.) The Refused ack is
			// the sender's proof that no copy of the agent exists here,
			// which is what makes its reroute to a live member
			// exactly-once safe. The refusal mutates nothing, so its
			// commit writes nothing (pinned by
			// TestDuplicateAndRefusedFramesWriteNothing).
			d.node.met.framesRefused.Inc()
			return effects{reply: &envelope{Kind: msgAck, Ack: ackMsg{ID: msg.ID, Hop: msg.Hop, Refused: true}}}
		}
		if err != nil {
			return effects{err: err}
		}
		fx := effects{reply: &envelope{Kind: msgAck, Ack: ackMsg{ID: msg.ID, Hop: msg.Hop, Dup: dup}}}
		if dup {
			// Already accepted earlier: the original acceptance dispatched
			// the agent (or a checkpoint replay will), so a redelivery
			// only needs the acknowledgement.
			return fx
		}
		// Once the ack is out the sender retires its checkpoint, and the
		// copy this commit persists is the agent's only durable one.
		fx.run = []*parkedAgent{{msg: msg}}
		fx.kill = d.opts.Fault.KillNow(d.id, arrivals)
		return fx
	case msgSnapshot:
		c := d.node.counters()
		if env.Job != 0 {
			c = d.node.countersForJob(env.Job)
		}
		return effects{reply: &envelope{Kind: msgCounters, Counters: c, Job: env.Job}}
	case msgPing:
		return effects{reply: &envelope{Kind: msgPong}}
	case msgShutdown:
		d.terminate()
		return effects{} // unanswered: the connection is closed
	case msgJoin:
		if env.Addr == "" { // observer: just report the membership
			return effects{reply: &envelope{Kind: msgMembers, Members: d.members.list(), You: -1}}
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
				return replyOK(fmt.Errorf("wire: daemon %d forward join to node 0: %w", d.id, err))
			}
			return effects{reply: fwd}
		}
		id, err := d.members.add(env.Addr)
		if err != nil {
			return replyOK(err)
		}
		// Best-effort: a member that misses the grown list learns it when
		// the joiner's first hop dials it, or on the next join.
		members := d.members.list()
		d.broadcast(&envelope{Kind: msgMembers, Members: members, You: -1})
		return effects{reply: &envelope{Kind: msgMembers, Members: members, You: id}}
	case msgMembers:
		return replyOK(d.members.update(env.Members))
	case msgLeave:
		if env.Node == d.id {
			return replyOK(fmt.Errorf("wire: daemon %d refuses its own departure notice", d.id))
		}
		d.members.leave(env.Node)
		return replyOK(nil)
	case msgInject:
		// The frame's payload is the checkpoint.
		a := env.Agent
		return d.inject(&agentMsg{Job: env.Job, Behavior: a.Behavior, State: a.State, payload: a.payload})
	case msgSetVar:
		var v any
		if env.Value != nil {
			v = env.Value.V
		}
		d.node.vars.set(env.Name, v)
		return replyOK(nil)
	case msgGetVar:
		return effects{reply: &envelope{Kind: msgVar, Value: &stateBox{V: d.node.vars.get(env.Name)}}}
	case msgCancel:
		// A cancelled job's parked agents would otherwise sleep through
		// their own cancellation: thaw them so the dispatch prologue's
		// cancel check absorbs each one and the namespace can quiesce.
		d.node.cancels.cancel(env.Job)
		return d.thaw(env.Job)
	case msgFree:
		d.node.releaseJob(env.Job)
		d.node.cancels.release(env.Job)
		return d.thaw(env.Job)
	case msgClear:
		d.node.vars.deletePrefix(env.Name)
		return replyOK(nil)
	case msgFreeze:
		d.node.freeze(env.Job)
		return replyOK(nil)
	case msgThaw:
		return d.thaw(env.Job)
	case msgDrain:
		timeout := drainTimeout
		if env.Count > 0 {
			timeout = time.Duration(env.Count) * time.Millisecond
		}
		// A failed drain can stop between its state-machine syncs (a
		// timeout mid-evacuation, say); the commit persists whatever
		// point it reached before the reply externalizes the verdict, so
		// a retried drain resumes from the durable truth.
		return replyOK(d.drain(timeout))
	case msgAbsorb:
		// Absorb is dup-safe at the nodeState layer (the absorbed set),
		// so a draining peer that crashed between our reply and its
		// drained-flag sync can retry against the same pinned target.
		d.node.absorb(env.Node, env.Counters, env.PerJob)
		return replyOK(nil)
	default:
		// Reply kinds (msgAck et al.) arriving on an inbound connection
		// are protocol noise; drop the connection.
		return effects{}
	}
}

// thaw lifts job's freeze mark and releases the agents it had parked.
func (d *daemon) thaw(job uint64) effects {
	fx := replyOK(nil)
	fx.run = d.node.thaw(job)
	return fx
}

// inject gives msg its identity and takes it into the node as a new
// agent — injection is local, as in MESSENGERS. msg carries the
// behavior, the state and the namespace the agent (and everything it
// injects) is accounted to. Its commit persists the checkpoint before
// the reply and the dispatch, so an injection into a dying daemon is not
// lost: the restart replays it.
func (d *daemon) inject(msg *agentMsg) effects {
	msg.ID = d.node.newAgentID()
	arrivals, err := d.node.inject(msg)
	switch {
	case errors.Is(err, errEvacuated):
		// Not a daemon failure: the coordinator's inject path re-places
		// the agent on a live member.
		return replyOK(err)
	case err != nil:
		return effects{err: err}
	case d.opts.Fault.KillNow(d.id, arrivals):
		return effects{kill: true} // dies on arrival, unanswered; the restart replays it
	}
	fx := replyOK(nil)
	fx.run = []*parkedAgent{{msg: msg}}
	return fx
}

// commit is the daemon's one persist-before-acknowledge point: every
// inbound frame's effects leave through it, and so does a step's local
// injection (conn nil: nobody to answer). It syncs the node image first,
// unconditionally — a frame that changed nothing finds its mutations
// covered and writes nothing — so no reply ever acknowledges a change
// the log lacks. A daemon-fatal error then ends the connection
// unanswered; otherwise the reply is written, the fault plan's kill
// fires, or the released agents are dispatched — even when the reply
// write failed: the peer will retransmit and be told "duplicate", and
// this live daemon owns the only dispatchable copy. It reports whether
// the connection should keep being served.
func (d *daemon) commit(fx effects, conn net.Conn) bool {
	if err := d.node.sync(); err != nil && fx.err == nil {
		fx.err = err
	}
	if fx.err != nil {
		d.fail(fx.err)
		return false
	}
	answered := fx.reply != nil
	if answered && conn != nil {
		f, err := encodeFrame(fx.reply)
		if err != nil {
			d.fail(err) // a malformed reply, not a broken peer
			return false
		}
		_, err = conn.Write(f.bytes())
		f.release()
		answered = err == nil
	}
	if fx.kill {
		d.kill()
		return false
	}
	if d.dead.Load() {
		return false // the checkpoints replay on the next incarnation
	}
	for _, p := range fx.run {
		d.startStep(p.msg, p.replay)
	}
	return answered
}

// forwardJoin relays a join request to node 0, the cluster's single id
// allocator, and adopts the grown membership list from the reply. It
// requires node 0 live: joins are unavailable while the allocator is
// down (hops, control traffic, and static-seed starts are unaffected),
// which is the price of never handing two joiners the same index.
func (d *daemon) forwardJoin(joinAddr string) (*envelope, error) {
	if _, err := d.members.addr(0); err != nil {
		return nil, err // out of range, or node 0 has left
	}
	c, err := d.peer(0)
	if err != nil {
		return nil, err
	}
	rep, err := c.roundTrip(&envelope{Kind: msgJoin, Addr: joinAddr}, d.opts.ackTimeout())
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

// refreshMembers adopts node 0's membership list, read with the observer
// join query. It is best-effort: a failure leaves the view as it was.
func (d *daemon) refreshMembers() {
	if d.id == 0 {
		return // node 0 allocates the ids, so its view is never behind
	}
	c, err := d.peer(0)
	if err != nil {
		return
	}
	if rep, err := c.roundTrip(&envelope{Kind: msgJoin}, d.opts.ackTimeout()); err == nil && rep.Kind == msgMembers {
		d.members.update(rep.Members)
	}
}

// broadcast sends env to every other member, best-effort and
// asynchronous: nobody waits for the replies, and a member that misses
// the frame learns its news another way (see the call sites).
func (d *daemon) broadcast(env *envelope) {
	for i := range d.members.size() {
		if i == d.id {
			continue
		}
		go func() {
			if c, err := d.peer(i); err == nil {
				c.roundTrip(env, d.opts.ackTimeout())
			}
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
	// A member that misses the leave notice learns on its next dial here
	// (refused frames) or from a peer's tombstone.
	leave := &envelope{Kind: msgLeave, Node: d.id}
	if d.node.isDrained() {
		d.broadcast(leave) // the crash may have eaten the first broadcast
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
	backoff := retryBackoff
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
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
		}
	}
	d.node.setDrained()
	if err := d.node.sync(); err != nil {
		return err
	}
	d.node.met.drains.Inc()
	d.broadcast(leave)
	return nil
}

// absorbInto performs one msgAbsorb round trip against the pinned
// survivor.
func (d *daemon) absorbInto(target int, total counters, perJob map[uint64]counters) error {
	c, err := d.peer(target)
	if err != nil {
		return err
	}
	rep, err := c.roundTrip(&envelope{Kind: msgAbsorb, Node: d.id, Counters: total, PerJob: perJob}, d.opts.ackTimeout())
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
		if d.node.isDraining() {
			// Drain's evacuation (DESIGN.md §16), strictly after the
			// cancel check (a cancelled agent is absorbed, never shipped)
			// and strictly before the freeze park (an evacuated agent
			// leaves even if its job is frozen — the destination's own
			// freeze mark re-parks it there). A draining node ships every
			// agent at its dispatch boundary as a synthetic hop. Pin the
			// destination and persist it BEFORE the ship: a crashed drain
			// replays this dispatch, and assignMigration hands the replay
			// the pinned survivor instead of choosing another.
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
			d.migrateOut(msg, dst)
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
		msg.payload = nil // the step may change State; the arrival payload is the checkpoint's alone now
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
func (d *daemon) migrateOut(msg *agentMsg, dst int) {
	prev := msg.Hop
	out := &agentMsg{ID: msg.ID, Hop: msg.Hop + 1, Job: msg.Job, Behavior: msg.Behavior, State: msg.State}
	if d.deliver(dst, out, prev) {
		d.node.met.agentsMigrated.Inc()
		d.sink.record(trace.TraceMigrate, msg.Job, msg.Behavior, d.id, dst, 0, "evacuate")
	}
}

// deliver ships one hop frame to a peer with at-least-once semantics:
// retry with exponential backoff until the destination acknowledges that
// it has checkpointed the agent, then retire our own checkpoint exactly
// once; it reports whether an acknowledgement arrived. The fault
// injector sits right here — drops suppress the write and wait out the
// ack timeout, duplicates repeat it, delays precede it — so every chaos
// scenario exercises the same code path real network trouble would.
//
// The frame rides the peer's connection like any request, and its ack is
// the reply in its position. A connection torn down under the wait (a
// peer reset, or a neighbour's timeout) means no ack is coming on it: the
// frame is resent at once over a fresh dial, and the receiver's dedup
// answers Dup if the first copy got in. The wait's own timeout backs off
// and resends; it proves nothing about the destination.
//
// Two outcomes divert the hop instead of settling it: a Refused ack (the
// destination is an evacuated tombstone shell that provably did not
// accept), and a failed dial or write to a member that has announced its
// departure. Both reroute the frame to the next live member — after
// pinning that choice in the persisted image, so a crashed-and-replayed
// sender re-ships to the same stand-in.
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
	ackTimeout := d.opts.ackTimeout()
	backoff := retryBackoff
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
		var reply *envelope
		var err error
		sentAt := time.Now()
		if dec.Drop {
			met.framesDropped.Inc()
			d.sink.record(trace.TraceDrop, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)), "")
			// A lost frame's sender learns of the loss only when its ack
			// fails to come: the drop costs the ack timeout, as it costs
			// the plan's RetryTimeout on the sim backend.
			if !d.sleep(ackTimeout) {
				return false
			}
		} else {
			var c *ctlConn
			if c, err = d.peer(dst); err == nil {
				reply, err = c.roundTripFrame(frame, dec.Dup, ackTimeout)
			}
			if err == nil || errors.Is(err, errCtlTimeout) || errors.Is(err, errCtlTornDown) {
				copies := int64(1 + dec.Dup)
				met.framesSent.Add(copies)
				met.bytesSent.Add(copies * int64(len(frame)))
			}
		}
		if d.dead.Load() {
			return false
		}
		if reply != nil {
			if reply.Kind != msgAck || reply.Ack.ID != msg.ID || reply.Ack.Hop != msg.Hop {
				d.fail(fmt.Errorf("wire: daemon %d: node %d answered hop (%d, %d) with %s (%d, %d)",
					d.id, dst, msg.ID, msg.Hop, reply.Kind, reply.Ack.ID, reply.Ack.Hop))
				return false
			}
			if reply.Ack.Refused {
				// The destination is an evacuated shell that provably did
				// not accept the frame; divert to a live stand-in.
				if nd := d.reroute(msg, dst); nd >= 0 {
					dst = nd
					continue
				}
				return false
			}
			met.framesAcked.Inc()
			met.ackLatency.Observe(time.Since(sentAt).Microseconds())
			if d.node.ackDelivered(msg.ID, prevHop) {
				d.syncLazily()
			}
			d.sink.record(trace.TraceHop, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)), "")
			return true
		}
		if errors.Is(err, errCtlTornDown) {
			met.framesRetried.Inc()
			d.sink.record(trace.TraceRetry, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)),
				fmt.Sprintf("attempt %d", attempt+2))
			continue // resend at once over a fresh dial
		}
		if err != nil && !errors.Is(err, errCtlTimeout) && d.members.left(dst) {
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
		d.sink.record(trace.TraceRetry, msg.Job, msg.Behavior, d.id, dst, int64(len(frame)),
			fmt.Sprintf("attempt %d", attempt+2))
		if !d.sleep(backoff) {
			return false
		}
		if backoff *= 2; backoff > maxRetryBackoff {
			backoff = maxRetryBackoff
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
	d.sink.record(trace.TraceMigrate, msg.Job, msg.Behavior, d.id, nd, 0,
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

// peer returns this incarnation's connection to member dst, which carries
// every frame sent there — hops and daemon-to-daemon control alike. The
// connection is cached for the incarnation's life and redials itself after
// a failure; creating one dials nothing, and the ctlConn dials outside any
// lock, once however many callers arrive together, so a slow or dead peer
// never stalls linkMu (and with it every sender to every other peer,
// serve's inbound registration and terminate).
func (d *daemon) peer(dst int) (*ctlConn, error) {
	d.linkMu.Lock()
	defer d.linkMu.Unlock()
	if d.dead.Load() {
		return nil, errKilled
	}
	if c, ok := d.links[dst]; ok {
		return c, nil
	}
	// addrAny, not addr: departed members are dialed on purpose — their
	// tombstone shells settle duplicate acks and refuse fresh frames,
	// and only a refusal or a failed dial licenses a reroute.
	addr, err := d.members.addrAny(dst)
	if err != nil {
		return nil, err
	}
	c := &ctlConn{addr: addr, dials: d.node.met.linkDials}
	d.links[dst] = c
	return c, nil
}

// kill terminates this incarnation abruptly — the fault injector's
// daemon crash. Running steps are abandoned mid-flight; everything they
// would have contributed is reconstructed from the node's checkpoint
// store when the cluster's supervisor (the prober's down hook) restarts
// the daemon.
func (d *daemon) kill() {
	alreadyDead := d.dead.Load()
	d.terminate()
	if !alreadyDead {
		d.sink.record(trace.TraceKill, 0, "", d.id, d.id, 0, "")
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
		peers := make([]*ctlConn, 0, len(d.links))
		for _, c := range d.links {
			peers = append(peers, c)
		}
		for conn := range d.inbound {
			conn.Close()
		}
		d.linkMu.Unlock()
		// Outside linkMu: close waits for each connection's reader. peer
		// adds nothing once dead is set, so the list is complete.
		for _, c := range peers {
			c.close()
		}
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
