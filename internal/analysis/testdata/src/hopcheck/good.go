package hopcheck

import "repro/internal/navp"

// rebound is the true-negative fixture: every node reference is re-read
// from ag.Node() after each navigation, as the locality rule requires.
func rebound(sys *navp.System) {
	x, k := sys.Var("x"), sys.Var("k")
	sys.Inject(0, "good", func(ag *navp.Agent) {
		nd := ag.Node()
		nd.Set(x, 1)
		ag.Hop(1)
		nd = ag.Node()
		nd.Set(x, 2)
		for i := 0; i < 3; i++ {
			ag.Hop(i)
			cur := ag.Node()
			cur.Set(k, i)
		}
	})
}

// injected proves a child's hops do not stale the parent's references:
// the injected agent navigates, the parent stays put.
func injected(sys *navp.System) {
	y, x := sys.Var("y"), sys.Var("x")
	sys.Inject(0, "good-inject", func(ag *navp.Agent) {
		home := ag.Node()
		ag.Inject("child", func(c *navp.Agent) {
			c.Hop(1)
			c.Node().Set(y, 2)
		})
		home.Set(x, 1)
	})
}
