package wire

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// nodeState is the node-resident persistent state of one cluster node:
// node variables, events, the checkpoint store, the hop dedup table, and
// the termination counters. It is owned by the Host and handed to every
// daemon incarnation serving the node, so it survives daemon crashes —
// the role the node's local disk plays in application-initiated
// checkpointing, where a restarted MESSENGERS daemon re-injects in-flight
// agents from their last completed hop.
//
// Every mutation is a guarded transition keyed on the agent's hop number
// (accept only Hop > last seen; retire a checkpoint only at the expected
// hop), so any number of daemon incarnations — including "zombie" steps
// of a killed incarnation still unwinding — can race on it safely: each
// per-agent effect happens exactly once.
type nodeState struct {
	id      int
	vars    *store
	events  *events
	met     *wireMetrics
	retain  int        // dedup high-water mark (Options.DedupRetain)
	cancels *cancelSet // cancelled job namespaces
	persist *persister // snapshot + log on disk; nil without a state directory

	// seq numbers the node's durable mutations across all three lock
	// domains (this one, vars, cancels); sync() compares it with what the
	// log covers. It stays zero when persist is nil.
	seq atomic.Uint64

	mu        sync.Mutex
	dirty     *dirtySet[recKey]      // keys changed since the last batch; nil when persist is nil
	ckpt      map[uint64]*checkpoint // agent ID → last completed hop boundary
	lastHop   map[uint64]uint64      // agent ID → highest accepted hop (dedup)
	perJob    map[uint64]*counters   // job namespace → its slice of the counters
	nextAgent uint64                 // local agent ID allocator
	arrivals  int64                  // accepted arrivals + injections (kill triggers)

	// retired is the FIFO of dedup entries whose agents are no longer
	// resident (hopped away or finished), awaiting high-water eviction;
	// retiredHead indexes its oldest live element. See retireDedup.
	// Entries are numbered from the node's first retirement — retiredBase
	// is retired[0]'s number — so the log appends them by position, and
	// retiredLogged is the position the log has reached.
	retired       []dedupRetired
	retiredHead   int
	retiredBase   uint64
	retiredLogged uint64

	// Migration and elasticity state (DESIGN.md §16). migrations and
	// reroutes pin a destination choice *before* the frame is shipped, so
	// a crashed-and-replayed sender re-sends to the same node — the
	// invariant that keeps hop (id, h+1) from being accepted fresh at two
	// different nodes. frozen/draining/evacuated/drained/absorbed are the
	// preemption and drain state machines; parked is rebuilt by replay
	// and not persisted itself.
	migrations   map[uint64]int          // agent ID → pinned migration destination
	reroutes     map[uint64]int          // agent ID → pinned stand-in for a departed destination
	frozen       map[uint64]struct{}     // job namespaces parked at dispatch
	parked       map[uint64]*parkedAgent // frozen agents awaiting thaw
	draining     bool                    // evacuation in progress: residents re-migrate at dispatch
	evacuated    bool                    // checkpoint store emptied; inbound agents refused
	drained      bool                    // counters absorbed by a survivor; report zeros
	absorbed     map[int]bool            // node IDs whose drain handed us their counters
	absorbTarget int                     // pinned absorb destination; -1 until the drain picks one

	// Mattern's four counters. Sent counts only acknowledged, accepted
	// migrations; Received only deduplicated accepts — so duplicated and
	// replayed frames never unbalance the termination snapshot.
	created, finished, sent, received int64
}

// dedupRetired marks one retired dedup entry: the eviction is applied
// only if lastHop still holds exactly this value when the entry reaches
// the head of the queue (the agent has not been re-accepted since).
type dedupRetired struct{ id, hop uint64 }

// checkpoint is one agent's state at its last completed hop boundary. The
// state is stored as gob bytes — a true snapshot, immune to the running
// step mutating the live value afterwards.
type checkpoint struct {
	behavior string
	hop      uint64
	job      uint64
	state    []byte
}

// cancelSet is a node's record of cancelled job namespaces. The
// coordinator delivers the mark to every node (msgCancel, re-delivered
// by the waiter to nodes that were down for the broadcast), so wherever
// a cancelled agent lands — or replays after a crash — the daemon
// retires it instead of running its step: the mechanism that propagates
// job cancellation through hops.
type cancelSet struct {
	mu    sync.Mutex
	m     map[uint64]struct{}
	dirty *dirtySet[uint64] // marks changed since the last batch; nil without persistence
}

func newCancelSet() *cancelSet { return &cancelSet{m: map[uint64]struct{}{}} }

// cancel marks job cancelled. The mark is part of the persisted node
// image: a crash must not resurrect a cancelled namespace.
//
//navplint:fact durable
func (cs *cancelSet) cancel(job uint64) {
	cs.mu.Lock()
	if _, ok := cs.m[job]; !ok {
		cs.m[job] = struct{}{}
		cs.dirty.mark(job)
	}
	cs.mu.Unlock()
}

func (cs *cancelSet) cancelled(job uint64) bool {
	cs.mu.Lock()
	_, ok := cs.m[job]
	cs.mu.Unlock()
	return ok
}

// release forgets job's cancel mark once its namespace is freed; like
// the mark itself, the removal is part of the persisted image.
//
//navplint:fact durable
func (cs *cancelSet) release(job uint64) {
	cs.mu.Lock()
	if _, ok := cs.m[job]; ok {
		delete(cs.m, job)
		cs.dirty.mark(job)
	}
	cs.mu.Unlock()
}

func newNodeState(id int, met *wireMetrics, retain int) *nodeState {
	return &nodeState{
		id: id, vars: newStore(), events: newEvents(), met: met, retain: retain,
		cancels: newCancelSet(),
		ckpt:    map[uint64]*checkpoint{}, lastHop: map[uint64]uint64{},
		perJob:     map[uint64]*counters{},
		migrations: map[uint64]int{}, reroutes: map[uint64]int{},
		frozen: map[uint64]struct{}{}, parked: map[uint64]*parkedAgent{},
		absorbed: map[int]bool{}, absorbTarget: -1,
	}
}

// jobCounters returns job's slice of the termination counters, creating
// it on first use. Callers hold ns.mu. Entries are removed by releaseJob
// once the scheduler is done with a namespace, so per-job bookkeeping
// does not accumulate across a long-lived serving cluster.
//
// Every caller is about to move a counter, and moves the node totals in
// the meta key in the same breath, so both are marked dirty here — the
// caller keeps ns.mu until the move is made, and capture takes ns.mu.
func (ns *nodeState) jobCounters(job uint64) *counters {
	c, ok := ns.perJob[job]
	if !ok {
		c = &counters{}
		ns.perJob[job] = c
		ns.met.jobsTracked.Add(1)
	}
	ns.dirty.mark(recKey{domJob, job})
	ns.dirty.mark(metaKey)
	return c
}

// delJobCounters drops job's counter slice. Callers hold ns.mu.
func (ns *nodeState) delJobCounters(job uint64) {
	if _, ok := ns.perJob[job]; ok {
		delete(ns.perJob, job)
		ns.met.jobsTracked.Add(-1)
		ns.dirty.mark(recKey{domJob, job})
	}
}

// releaseJob drops job's counter slice (called by the cluster after the
// namespace is quiescent and its results are collected).
//
//navplint:fact durable
func (ns *nodeState) releaseJob(job uint64) {
	ns.mu.Lock()
	ns.delJobCounters(job)
	ns.mu.Unlock()
}

// setLastHop records hop as the highest accepted hop for id, keeping
// the cluster-wide dedup size gauge current. Callers hold ns.mu.
func (ns *nodeState) setLastHop(id, hop uint64) {
	if _, ok := ns.lastHop[id]; !ok {
		ns.met.dedupSize.Add(1)
	}
	ns.lastHop[id] = hop
	ns.dirty.mark(recKey{domHop, id})
}

// delLastHop forgets id's dedup entry. Callers hold ns.mu.
func (ns *nodeState) delLastHop(id uint64) {
	if _, ok := ns.lastHop[id]; ok {
		delete(ns.lastHop, id)
		ns.met.dedupSize.Add(-1)
		ns.dirty.mark(recKey{domHop, id})
	}
}

// putCkpt installs or replaces an agent's checkpoint, keeping the
// checkpoint-store size gauge current. Callers hold ns.mu.
func (ns *nodeState) putCkpt(id uint64, c *checkpoint) {
	if _, ok := ns.ckpt[id]; !ok {
		ns.met.ckptSize.Add(1)
	}
	ns.ckpt[id] = c
	ns.dirty.mark(recKey{domCkpt, id})
}

// delCkpt removes an agent's checkpoint. Callers hold ns.mu.
func (ns *nodeState) delCkpt(id uint64) {
	if _, ok := ns.ckpt[id]; ok {
		ns.met.ckptSize.Add(-1)
		delete(ns.ckpt, id)
		ns.dirty.mark(recKey{domCkpt, id})
	}
}

// setPin and delPin write the migration (domMig) and reroute
// (domReroute) destination tables. Callers hold ns.mu.
func (ns *nodeState) setPin(dom byte, id uint64, dst int) {
	ns.pins(dom)[id] = dst
	ns.dirty.mark(recKey{dom, id})
}

func (ns *nodeState) delPin(dom byte, id uint64) {
	m := ns.pins(dom)
	if _, ok := m[id]; ok {
		delete(m, id)
		ns.dirty.mark(recKey{dom, id})
	}
}

// retireDedup queues agent id's dedup entry for eviction now that its
// checkpoint here is gone (the agent hopped away or finished), and
// evicts the oldest queued entries beyond the high-water mark. Callers
// hold ns.mu.
//
// Safety under duplicate redelivery — why evicting an entry cannot
// break dedup:
//
//  1. Duplicate copies of hop frame (id, h) exist only while the
//     sender's deliver loop for (id, h) is running: retransmissions
//     and fault-injected duplicate copies are all written before the
//     loop exits, and the loop exits on the first acknowledgement —
//     the ack this node sent when it accepted (id, h) and created the
//     very dedup entry being protected. Every duplicate is therefore
//     in flight no later than one ack round-trip after the entry is
//     created, and TCP delivers it within the lifetime of its
//     connection, whose buffered frames the daemon drains continuously.
//  2. Eviction happens only after `retain` further retirements at this
//     node, each of which itself required a full accept/ack cycle on
//     the same transport. A duplicate would have to stay undelivered
//     across that many completed round-trips to outlive its entry.
//  3. Defense in depth: if a duplicate of a *non-terminal* hop were
//     nevertheless re-accepted, the model contract already makes it
//     harmless — steps tolerate re-execution from their hop boundary
//     (the checkpoint-replay contract), and the termination counters
//     re-balance because the zombie's received++ is compensated by the
//     sent++ its re-hop earns when the downstream dup-ack retires the
//     recreated checkpoint. Only a *terminal* hop's duplicate could
//     skew `finished`; its entry is the youngest in the queue at
//     complete() time and survives a further `retain` retirements —
//     the widest window the protocol has.
//  4. An entry whose agent was re-accepted here at a higher hop (a
//     revisit in a cyclic itinerary) is not evicted: the queued
//     (id, hop) pair no longer matches the table, so the stale queue
//     entry is skipped and the newer retirement governs.
func (ns *nodeState) retireDedup(id, hop uint64) {
	ns.retired = append(ns.retired, dedupRetired{id: id, hop: hop})
	ns.dirty.mark(metaKey) // the queue's new entries and head travel with the meta key
	for len(ns.retired)-ns.retiredHead > ns.retain {
		e := ns.retired[ns.retiredHead]
		ns.retiredHead++
		if cur, ok := ns.lastHop[e.id]; ok && cur == e.hop {
			ns.delLastHop(e.id)
			ns.met.dedupEvicted.Inc()
		}
	}
	// Compact the drained prefix once it dominates the slice, so the
	// queue's footprint stays proportional to the high-water mark.
	if ns.retiredHead > ns.retain {
		n := copy(ns.retired, ns.retired[ns.retiredHead:])
		ns.retired = ns.retired[:n]
		ns.retiredBase += uint64(ns.retiredHead)
		ns.retiredHead = 0
	}
}

// stateBox wraps an agent's carried state so a nil or interface-typed
// value round-trips through gob.
type stateBox struct{ V any }

func encodeState(v any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&stateBox{V: v}); err != nil {
		return nil, fmt.Errorf("wire: checkpoint encode: %w", err)
	}
	return buf.Bytes(), nil
}

func decodeState(b []byte) (any, error) {
	var box stateBox
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&box); err != nil {
		return nil, fmt.Errorf("wire: checkpoint decode: %w", err)
	}
	return box.V, nil
}

// newAgentID allocates a cluster-unique agent identity: origin node in
// the high bits, a persistent per-node counter below, so IDs never repeat
// even across daemon restarts.
func (ns *nodeState) newAgentID() uint64 {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	ns.nextAgent++
	ns.dirty.mark(metaKey)
	return uint64(ns.id)<<40 | ns.nextAgent
}

// inject records a newly created agent: counted created, checkpointed at
// hop zero so a crash before its first step replays it. Returns the
// node's accepted-arrival count (the kill trigger clock).
//
//navplint:fact durable
func (ns *nodeState) inject(msg *agentMsg) (arrivals int64, err error) {
	snap, err := encodeState(msg.State)
	if err != nil {
		return 0, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.evacuated {
		// An evacuated shell's checkpoint store must stay empty and its
		// counter history is (or is about to be) absorbed elsewhere; the
		// coordinator re-places the injection on a live member.
		return 0, errEvacuated
	}
	ns.created++
	ns.jobCounters(msg.Job).Created++
	ns.arrivals++
	ns.met.agentsInjected.Inc()
	ns.setLastHop(msg.ID, msg.Hop)
	ns.putCkpt(msg.ID, &checkpoint{behavior: msg.Behavior, hop: msg.Hop, job: msg.Job, state: snap})
	return ns.arrivals, nil
}

// errEvacuated reports a fresh hop frame arriving at an evacuated
// tombstone shell; the daemon answers with a Refused ack instead of
// accepting (DESIGN.md §16).
var errEvacuated = errors.New("wire: node evacuated; fresh frames refused")

// accept processes an arriving hop frame: duplicates (a hop number at or
// below the highest already accepted for the agent) are reported without
// side effects; fresh frames are counted, recorded in the dedup table,
// and checkpointed before the caller dispatches the step. On an
// evacuated node fresh frames fail with errEvacuated — the check lives
// under ns.mu with the dup guard, so a racing drain either sees this
// acceptance in its pendingCheckpoints re-check or this accept sees the
// evacuated flag; there is no in-between.
//
//navplint:fact durable
func (ns *nodeState) accept(msg *agentMsg) (dup bool, arrivals int64, err error) {
	snap, err := encodeState(msg.State)
	if err != nil {
		return false, 0, err
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if last, seen := ns.lastHop[msg.ID]; seen && msg.Hop <= last {
		return true, ns.arrivals, nil
	}
	if ns.evacuated {
		return false, ns.arrivals, errEvacuated
	}
	if cur := ns.ckpt[msg.ID]; cur != nil && cur.hop < msg.Hop {
		// The agent left this node and is now returning at a higher hop
		// before the outbound hop's acknowledgement was processed. Its
		// return proves the delivery was accepted downstream, so retire
		// the stale checkpoint as a completed send here — the late ack's
		// hop guard in ackDelivered will no longer match.
		ns.sent++
		ns.jobCounters(cur.job).Sent++
	}
	ns.received++
	ns.jobCounters(msg.Job).Received++
	ns.arrivals++
	ns.setLastHop(msg.ID, msg.Hop)
	ns.putCkpt(msg.ID, &checkpoint{behavior: msg.Behavior, hop: msg.Hop, job: msg.Job, state: snap})
	return false, ns.arrivals, nil
}

// rehop advances an agent's checkpoint across a free local hop (dst ==
// current node): hop boundaries are checkpoint boundaries even when no
// frame crosses the wire. It reports false — abandon the step — when the
// agent's checkpoint has moved on, which means the caller is a zombie of
// a killed incarnation racing its own replay.
func (ns *nodeState) rehop(msg *agentMsg) bool {
	snap, err := encodeState(msg.State)
	if err != nil {
		return false
	}
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur := ns.ckpt[msg.ID]
	if cur == nil || cur.hop != msg.Hop {
		return false
	}
	msg.Hop++
	ns.setLastHop(msg.ID, msg.Hop)
	ns.putCkpt(msg.ID, &checkpoint{behavior: msg.Behavior, hop: msg.Hop, job: msg.Job, state: snap})
	return true
}

// ackDelivered retires an agent's checkpoint after the destination
// acknowledged the hop out of prevHop, and counts the migration sent.
// The guard makes the transition exactly-once: a crashed-and-replayed
// sender that re-sends (and receives a duplicate ack) retires the
// checkpoint on whichever acknowledgement arrives first.
func (ns *nodeState) ackDelivered(id, prevHop uint64) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur := ns.ckpt[id]
	if cur == nil || cur.hop != prevHop {
		return false
	}
	ns.delCkpt(id)
	ns.sent++
	ns.jobCounters(cur.job).Sent++
	// The agent is now owned downstream: its pinned migration and
	// reroute choices are spent, and its dedup entry here starts its
	// high-water retirement countdown.
	ns.delPin(domMig, id)
	ns.delPin(domReroute, id)
	ns.retireDedup(id, prevHop)
	return true
}

// complete retires an agent that finished (Done) at hop. The same guard
// as ackDelivered makes the finished count exactly-once under replay.
func (ns *nodeState) complete(id, hop uint64) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	cur := ns.ckpt[id]
	if cur == nil || cur.hop != hop {
		return false
	}
	ns.delCkpt(id)
	ns.finished++
	ns.jobCounters(cur.job).Finished++
	ns.met.agentsCompleted.Inc()
	ns.delPin(domMig, id)
	ns.delPin(domReroute, id)
	// Terminal retirement: the finished agent's dedup entry is queued
	// for eviction rather than deleted outright, so late duplicates of
	// its final inbound hop are still recognized for a further `retain`
	// retirements (see retireDedup's safety argument).
	ns.retireDedup(id, hop)
	return true
}

// counters reads the termination snapshot contribution. A drained node
// contributes zeros: its entire history was absorbed by a survivor, and
// reporting it twice would unbalance every snapshot that still reaches
// this node's state (a tombstone shell polled directly, a revived state
// dir).
func (ns *nodeState) counters() counters {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.drained {
		return counters{}
	}
	return counters{Created: ns.created, Finished: ns.finished,
		Sent: ns.sent, Received: ns.received}
}

// countersForJob reads one job namespace's slice of the termination
// snapshot. A job this node has never seen contributes zeros (which is
// balanced, as it must be), and so does a drained node (see counters).
func (ns *nodeState) countersForJob(job uint64) counters {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.drained {
		return counters{}
	}
	if c, ok := ns.perJob[job]; ok {
		return *c
	}
	return counters{}
}

// jobsTracked reports how many job namespaces hold live counter slices
// here (bounded-state assertions in the scheduler soak tests).
func (ns *nodeState) jobsTracked() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.perJob)
}

// pendingCheckpoints reports how many agents are checkpointed here (in
// flight or mid-step).
func (ns *nodeState) pendingCheckpoints() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.ckpt)
}

// dedupSize reports the dedup table's live entry count (tests and the
// soak suite read it directly; production code watches the gauge).
func (ns *nodeState) dedupSize() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.lastHop)
}

// replayMessages reconstructs every checkpointed agent for re-injection
// by a restarted daemon. Each message is decoded from the snapshot bytes,
// so replayed agents never share state with zombie steps of the dead
// incarnation.
func (ns *nodeState) replayMessages() ([]*agentMsg, error) {
	ns.mu.Lock()
	entries := make(map[uint64]*checkpoint, len(ns.ckpt))
	for id, c := range ns.ckpt {
		entries[id] = c
	}
	ns.mu.Unlock()
	msgs := make([]*agentMsg, 0, len(entries))
	for id, c := range entries {
		st, err := decodeState(c.state)
		if err != nil {
			return nil, err
		}
		msgs = append(msgs, &agentMsg{ID: id, Hop: c.hop, Job: c.job, Behavior: c.behavior, State: st})
	}
	return msgs, nil
}
