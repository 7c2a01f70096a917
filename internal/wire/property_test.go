package wire

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
)

// walkerState carries a precomputed random route; the agent follows it
// and marks its own completion in a node variable at the final stop.
type walkerState struct {
	Name  string
	Route []int
	Pos   int
}

func init() {
	RegisterState(&walkerState{})
	Register("walker", func(ctx *Ctx) Verdict {
		st := ctx.State().(*walkerState)
		if st.Pos >= len(st.Route) {
			ctx.Set("done:"+st.Name, true)
			return ctx.Done()
		}
		next := st.Route[st.Pos]
		st.Pos++
		return ctx.HopTo(next)
	})
}

// TestMatternNeverDeclaresEarly is the termination-detection property:
// over random cluster sizes, random agent routes (including self-hops),
// and random drop/duplication/delay plans, Wait must never report
// quiescence while any agent is unfinished. When Wait returns, every
// walker's completion marker must already be present — a marker written
// only by the walker's final step.
func TestMatternNeverDeclaresEarly(t *testing.T) {
	if testing.Short() {
		t.Skip("property test skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(1234))
	for iter := 0; iter < 12; iter++ {
		iter := iter
		nodes := 2 + rng.Intn(4)
		agents := 1 + rng.Intn(10)
		plan := &fault.Plan{
			Seed:     rng.Int63(),
			Drop:     []float64{0, 0.02, 0.15}[rng.Intn(3)],
			Dup:      float64(rng.Intn(4)),
			Delay:    []float64{0, 0.3}[rng.Intn(2)],
			MaxDelay: 0.002,
			// Dropped frames retry after 100 ms.
			RetryTimeout: 0.1,
		}
		routes := make([][]int, agents)
		starts := make([]int, agents)
		for a := range routes {
			starts[a] = rng.Intn(nodes)
			hops := rng.Intn(12)
			route := make([]int, hops)
			for h := range route {
				route[h] = rng.Intn(nodes) // self-hops exercise rehop
			}
			routes[a] = route
		}
		t.Run(fmt.Sprintf("iter%02d", iter), func(t *testing.T) {
			cl, err := NewClusterOpts(nodes, Options{Fault: plan})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			for a := range routes {
				name := fmt.Sprintf("w%d", a)
				inject(t, cl, starts[a], "walker", &walkerState{Name: name, Route: routes[a]})
			}
			if err := cl.Wait(chaosTimeout); err != nil {
				t.Fatalf("plan %v: %v", plan, err)
			}
			// Quiescence declared: every walker must have completed.
			for a := range routes {
				name := fmt.Sprintf("w%d", a)
				end := starts[a]
				if len(routes[a]) > 0 {
					end = routes[a][len(routes[a])-1]
				}
				if getVar(t, cl, end, "done:"+name) != true {
					t.Errorf("quiescence declared but walker %s (route %v from %d) unfinished",
						name, routes[a], starts[a])
				}
			}
			// And the counters must balance exactly: each walker created
			// once, finished once, every accepted migration matched.
			var total counters
			for _, ns := range states(cl) {
				total.add(ns.counters())
			}
			if total.Created != int64(agents) || total.Finished != int64(agents) {
				t.Errorf("created/finished = %d/%d, want %d/%d",
					total.Created, total.Finished, agents, agents)
			}
			if total.Sent != total.Received {
				t.Errorf("sent %d != received %d after quiescence", total.Sent, total.Received)
			}
		})
	}
}

// TestMatternUnbalancedWhileAgentHeld pins the other side of the
// property: while an agent is knowingly alive (blocked on an event), the
// snapshot must stay unbalanced and Wait must time out rather than
// declare quiescence.
func TestMatternUnbalancedWhileAgentHeld(t *testing.T) {
	var once sync.Once
	release := make(chan struct{})
	Register("holder", func(ctx *Ctx) Verdict {
		once.Do(func() { close(release) })
		ctx.Wait("release-holder")
		return ctx.Done()
	})
	cl := newCluster(t, 2)
	inject(t, cl, 0, "holder", nil)
	<-release
	if err := cl.Wait(250 * time.Millisecond); err == nil {
		t.Fatal("quiescence declared while an agent was alive and blocked")
	}
	states(cl)[0].events.signal("release-holder")
	if err := cl.Wait(waitTimeout); err != nil {
		t.Fatalf("after release: %v", err)
	}
}
