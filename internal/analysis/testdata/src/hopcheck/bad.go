// Package hopcheck exercises the hopcheck analyzer: *navp.Node
// references that survive a Hop are remote accesses without navigation.
package hopcheck

import "repro/internal/navp"

// straightLine is the canonical violation: the node reference is bound,
// the agent navigates away, and the stale reference is dereferenced.
func straightLine(sys *navp.System) {
	x := sys.Var("x")
	sys.Inject(0, "bad", func(ag *navp.Agent) {
		nd := ag.Node()
		ag.Hop(1)
		nd.Set(x, 1) // want `node reference "nd" crosses a Hop`
	})
}

// inLoop binds outside the loop and hops inside it: the use is fine on
// iteration one and stale from iteration two on.
func inLoop(sys *navp.System) {
	k := sys.Var("k")
	sys.Inject(0, "bad-loop", func(ag *navp.Agent) {
		home := ag.Node()
		for i := 0; i < 4; i++ {
			home.Set(k, i) // want `node reference "home" crosses a Hop`
			ag.Hop(i % 2)
		}
	})
}

// branch hops on only one path; the merged state must still flag the
// use below the if.
func branch(sys *navp.System) {
	x := sys.Var("x")
	sys.Inject(0, "bad-branch", func(ag *navp.Agent) {
		nd := ag.Node()
		if nd.ID() == 0 {
			ag.Hop(1)
		}
		_ = nd.Get(x) // want `node reference "nd" crosses a Hop`
	})
}

// captured smuggles the stale reference into a compute closure.
func captured(sys *navp.System) {
	y := sys.Var("y")
	sys.Inject(0, "bad-closure", func(ag *navp.Agent) {
		nd := ag.Node()
		ag.Hop(1)
		ag.Compute(10, func() {
			nd.Set(y, 2) // want `node reference "nd" crosses a Hop`
		})
	})
}
