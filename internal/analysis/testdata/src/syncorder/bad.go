package syncorder

// directWrite acknowledges a mutation straight onto the wire with no
// sync in between.
func directWrite(n *node, b []byte) {
	n.mutate()
	n.conn.Write(b) // want `externalizes the effect of a durable mutation`
}

// viaHelper externalizes through a helper whose summary writes before
// its own first sync.
func viaHelper(n *node, b []byte) {
	n.mutate()
	n.send(b) // want `externalizes the effect of a durable mutation`
}

// dirtyHelper leaves the path dirty for its caller.
func dirtyHelper(n *node) { n.mutate() }

// throughDirtyHelper picks up dirt from a callee's summary, not a local
// mutation.
func throughDirtyHelper(n *node, b []byte) {
	dirtyHelper(n)
	n.send(b) // want `externalizes the effect of a durable mutation`
}

// branchMissesSync syncs on only one arm; the join is still dirty.
func branchMissesSync(n *node, b []byte, ok bool) {
	n.mutate()
	if ok {
		n.sync()
	}
	n.send(b) // want `externalizes the effect of a durable mutation`
}

// closureUnsynced calls the reply closure on a dirty path; the binding
// is single-assignment, so the closure's externalizing summary applies
// at the call site.
func closureUnsynced(n *node, b []byte) {
	reply := func() bool { return n.send(b) }
	n.mutate()
	reply() // want `externalizes the effect of a durable mutation`
}

// commitUnlessFailed syncs only when apply reported no error, so its
// send can leave on a path that never synced.
func (n *node) commitUnlessFailed(fx effects, failed bool) bool {
	if !failed {
		n.sync()
	}
	return n.send(fx.reply)
}

// applyThenConditionalCommit is the frame loop over that commit.
func applyThenConditionalCommit(n *node, frames [][]byte) {
	for _, b := range frames {
		if !n.commitUnlessFailed(n.apply(b), len(b) == 0) { // want `externalizes the effect of a durable mutation`
			return
		}
	}
}
