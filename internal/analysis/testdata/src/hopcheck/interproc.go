package hopcheck

import "repro/internal/navp"

// relay hops on behalf of its caller; the fact layer marks its summary
// as hopping, so hopcheck treats a call to it as a navigation point.
func relay(ag *navp.Agent, dst int) {
	ag.Hop(dst)
}

// bounce hops through a second level of helper: the hop fact is
// transitive through summaries.
func bounce(ag *navp.Agent) {
	relay(ag, 0)
}

// throughHelper is the interprocedural escape: the node reference is
// stale after the helper's buried Hop.
func throughHelper(sys *navp.System) {
	x := sys.Var("x")
	sys.Inject(0, "bad-relay", func(ag *navp.Agent) {
		nd := ag.Node()
		relay(ag, 1)
		nd.Set(x, 1) // want `node reference "nd" crosses a Hop`
	})
}

// throughTwoHelpers needs the hop fact to survive two summary levels.
func throughTwoHelpers(sys *navp.System) {
	x := sys.Var("x")
	sys.Inject(0, "bad-bounce", func(ag *navp.Agent) {
		nd := ag.Node()
		bounce(ag)
		_ = nd.Get(x) // want `node reference "nd" crosses a Hop`
	})
}

// work computes but never hops; calling it must not advance the epoch.
func work(ag *navp.Agent) {
	ag.Compute(1, func() {})
}

// helperNoHop keeps its node reference valid across a non-hopping
// helper.
func helperNoHop(sys *navp.System) {
	x := sys.Var("x")
	sys.Inject(0, "good-helper", func(ag *navp.Agent) {
		nd := ag.Node()
		work(ag)
		nd.Set(x, 1)
	})
}
