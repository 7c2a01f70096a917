package wire

// Agent migration, preemption (freeze/thaw), and drain state over the
// checkpoint substrate (DESIGN.md §16).
//
// The one system-initiated migration is drain's evacuation, and it is a
// synthetic hop. An agent on a draining node is not shipped by new
// machinery: at its next dispatch the daemon skips the step and
// delivers the checkpointed agent to a survivor as an ordinary msgAgent
// at hop+1 with the state unchanged. That single decision buys the
// whole exactly-once story for free — the destination's accept() dedup
// guard, the source's ackDelivered() hop guard, persist-before-ack,
// retry, and the kill -9 recovery the normal hop already has.
//
// The one new obligation is *destination determinism*: a crashed source
// replays its checkpoint and re-ships hop (id, h+1), and if the replay
// chose a different destination, two nodes would each accept (id, h+1)
// fresh — a double execution the dedup tables cannot see. So every
// destination choice (an evacuation target, a reroute around a departed
// member) is pinned in the persisted image before the first frame
// leaves the node. A pin is spent exactly when its checkpoint retires
// (ackDelivered and complete delete both together), so no pin outlives
// the agent it steers.

// parkedAgent is one frozen agent held off its step at the dispatch
// boundary: the message that would have run, plus the replay-ownership
// flag of the dispatch that parked it, so a thawed dispatch keeps the
// cancellation semantics of the original one.
type parkedAgent struct {
	msg    *agentMsg
	replay bool
}

// assignMigration pins one agent's evacuation destination if it has
// none yet, returning the pinned destination. The draining dispatch
// prologue is its one caller: it must choose a target per resident
// agent, make the choice durable before the ship, and hand a replayed
// dispatch the choice already made.
//
//navplint:fact durable
func (ns *nodeState) assignMigration(id uint64, dst int) int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if cur, ok := ns.migrations[id]; ok {
		return cur
	}
	ns.setPin(domMig, id, dst)
	return dst
}

// rerouteFor reports the pinned stand-in destination for an agent whose
// in-flight hop could not land at its original target. The pin governs
// every (re)send of the hop — a crashed-and-replayed sender re-reads it
// before dialing — and is spent when ackDelivered retires the hop.
func (ns *nodeState) rerouteFor(id uint64) (int, bool) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	dst, ok := ns.reroutes[id]
	return dst, ok
}

// pinReroute records dst as the stand-in destination for an agent's
// in-flight hop. Overwriting an existing pin is legal exactly when the
// previous destination provably never accepted the frame (a Refused
// ack, or a dial failure to a departed member); the caller persists the
// pin before shipping to the new destination.
//
//navplint:fact durable
func (ns *nodeState) pinReroute(id uint64, dst int) {
	ns.mu.Lock()
	ns.setPin(domReroute, id, dst)
	ns.mu.Unlock()
}

// freeze parks a job namespace: its agents stop at their next dispatch
// boundary with the checkpoint kept and the counters untouched. The
// mark is persisted so a crash cannot un-freeze a preempted job.
//
//navplint:fact durable
func (ns *nodeState) freeze(job uint64) {
	ns.mu.Lock()
	if _, ok := ns.frozen[job]; !ok {
		ns.frozen[job] = struct{}{}
		ns.dirty.mark(recKey{domFrozen, job})
	}
	ns.mu.Unlock()
}

// frozenJob reports whether a namespace is frozen here.
func (ns *nodeState) frozenJob(job uint64) bool {
	ns.mu.Lock()
	_, ok := ns.frozen[job]
	ns.mu.Unlock()
	return ok
}

// park holds a dispatched agent off its step while its job is frozen.
// Keyed by agent ID, so a replayed dispatch overwrites rather than
// duplicates. The parked set itself is not persisted: a restarted
// daemon's replay re-dispatches every checkpoint and the still-frozen
// mark re-parks them.
func (ns *nodeState) park(msg *agentMsg, replay bool) {
	ns.mu.Lock()
	if _, ok := ns.parked[msg.ID]; !ok {
		ns.met.agentsParked.Add(1)
	}
	ns.parked[msg.ID] = &parkedAgent{msg: msg, replay: replay}
	ns.mu.Unlock()
}

// thaw removes a namespace's freeze mark and returns its parked agents
// for re-dispatch (all parked agents when job is 0 — drain uses that
// form to evacuate parked work).
//
//navplint:fact durable
func (ns *nodeState) thaw(job uint64) []*parkedAgent {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if _, ok := ns.frozen[job]; ok && job != 0 {
		delete(ns.frozen, job)
		ns.dirty.mark(recKey{domFrozen, job})
	}
	var out []*parkedAgent
	for id, p := range ns.parked {
		if job != 0 && p.msg.Job != job {
			continue
		}
		out = append(out, p)
		delete(ns.parked, id)
		ns.met.agentsParked.Add(-1)
	}
	return out
}

// parkedCount reports how many agents are parked here.
func (ns *nodeState) parkedCount() int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return len(ns.parked)
}

// Drain state machine flags. Ordering on disk is what makes a crashed
// drain resumable: draining is set before any evacuation ship, the
// evacuated flag before the counter absorb, and drained only after the
// absorb target's durable acknowledgement.

//navplint:fact durable
func (ns *nodeState) setDraining(v bool) {
	ns.mu.Lock()
	ns.draining = v
	ns.dirty.mark(metaKey)
	ns.mu.Unlock()
}

func (ns *nodeState) isDraining() bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.draining
}

//navplint:fact durable
func (ns *nodeState) setEvacuated(v bool) {
	ns.mu.Lock()
	ns.evacuated = v
	ns.dirty.mark(metaKey)
	ns.mu.Unlock()
}

func (ns *nodeState) isEvacuated() bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.evacuated
}

//navplint:fact durable
func (ns *nodeState) setDrained() {
	ns.mu.Lock()
	ns.drained = true
	ns.dirty.mark(metaKey)
	ns.mu.Unlock()
}

func (ns *nodeState) isDrained() bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	return ns.drained
}

// pinAbsorbTarget pins the survivor that will absorb this node's
// counters, choosing with pick on first use. The choice is pinned for
// the same reason migration destinations are: a crashed drain must
// retry the *same* target, or a duplicate absorb at a second survivor
// would double-count this node's history.
//
//navplint:fact durable
func (ns *nodeState) pinAbsorbTarget(pick func() int) int {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.absorbTarget >= 0 {
		return ns.absorbTarget
	}
	ns.absorbTarget = pick()
	ns.dirty.mark(metaKey)
	return ns.absorbTarget
}

// exportCounters snapshots the node's full counter state — the
// cluster-wide totals and every per-job slice — for the drain's absorb
// handoff.
func (ns *nodeState) exportCounters() (counters, map[uint64]counters) {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	total := counters{Created: ns.created, Finished: ns.finished,
		Sent: ns.sent, Received: ns.received}
	perJob := make(map[uint64]counters, len(ns.perJob))
	for job, c := range ns.perJob {
		perJob[job] = *c
	}
	return total, perJob
}

// absorb merges a draining node's counter history into this node's,
// exactly once per source: a retried msgAbsorb (the source crashed
// between our ack and its drained-flag sync) is recognized by the
// absorbed set and acknowledged without re-adding.
//
//navplint:fact durable
func (ns *nodeState) absorb(src int, total counters, perJob map[uint64]counters) bool {
	ns.mu.Lock()
	defer ns.mu.Unlock()
	if ns.absorbed[src] {
		return false
	}
	ns.absorbed[src] = true
	ns.dirty.mark(recKey{domAbsorbed, uint64(src)})
	ns.dirty.mark(metaKey)
	ns.created += total.Created
	ns.finished += total.Finished
	ns.sent += total.Sent
	ns.received += total.Received
	for job, c := range perJob {
		ns.jobCounters(job).add(c)
	}
	return true
}
