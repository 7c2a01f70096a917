package syncorder

// syncThenSend is the contract: mutate, persist, acknowledge.
func syncThenSend(n *node, b []byte) {
	n.mutate()
	if err := n.sync(); err != nil {
		return
	}
	n.send(b)
}

// persisted cleans before returning, so callers inherit a clean path.
func persisted(n *node) {
	n.mutate()
	n.sync()
}

// throughCleanHelper trusts the helper's cleans-at-exit summary.
func throughCleanHelper(n *node, b []byte) {
	persisted(n)
	n.send(b)
}

// closureSynced binds a reply closure before the mutation and calls it
// only once the sync has run: the closure's summary is judged at the
// call, not at the binding.
func closureSynced(n *node, b []byte) {
	reply := func() bool { return n.send(b) }
	n.mutate()
	n.sync()
	reply()
}

// sendOnly externalizes with nothing durable pending — reads, pings,
// and snapshots never need a sync.
func sendOnly(n *node, b []byte) {
	n.send(b)
}

// dirtyExitWithoutSend leaves durable state unsynced but externalizes
// nothing; promptness is the persister's problem, not syncorder's.
func dirtyExitWithoutSend(n *node) {
	n.mutate()
}

// effects is what apply hands to commit: the reply to send once the
// mutation is durable.
type effects struct{ reply []byte }

// apply mutates and returns the reply, writing nothing itself.
func (n *node) apply(b []byte) effects {
	n.mutate()
	return effects{reply: b}
}

// commit syncs unconditionally, then sends.
func (n *node) commit(fx effects) bool {
	if err := n.sync(); err != nil {
		return false
	}
	return n.send(fx.reply)
}

// applyThenCommit is the daemon's frame loop: every frame is applied,
// then committed, so each reply leaves behind the sync that covers it.
func applyThenCommit(n *node, frames [][]byte) {
	for _, b := range frames {
		if !n.commit(n.apply(b)) {
			return
		}
	}
}
