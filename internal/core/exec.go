package core

import (
	"fmt"

	"repro/internal/navp"
)

// Execute runs the plan on a NavP system and blocks until every thread
// finishes. nodeOf maps the plan's (virtual) node numbers onto physical
// PE ids — pass nil for the identity mapping. Threads are injected in
// plan order by an injector agent that hops to each thread's start node,
// exactly as the paper's outer pseudocode does; each cross-thread Dep
// becomes a node-local wait/signal pair on an event of its own, minted
// before the system runs.
//
// Execute works on both backends; on the simulation backend the system's
// VirtualTime after return is the plan's makespan.
func Execute(p *Plan, sys *navp.System, nodeOf func(int) int) error {
	if err := p.Validate(); err != nil {
		return err
	}
	if nodeOf == nil {
		nodeOf = func(n int) int { return n }
	}

	incoming := map[string][]navp.Event{} // item ID -> dep events to wait on
	outgoing := map[string][]navp.Event{} // item ID -> dep events to signal
	var carry navp.Var
	err := sys.Inject(0, "injector", func(ag *navp.Agent) {
		for ti := range p.Threads {
			t := &p.Threads[ti]
			ag.Hop(nodeOf(t.Start))
			ag.Inject(t.Name, func(th *navp.Agent) {
				if t.CarryBytes > 0 {
					th.Set(carry, nil, t.CarryBytes)
				}
				for ii := 0; ii < len(t.Items); {
					// MESSENGERS computations are non-preemptive between
					// navigational/synchronization statements, so a run
					// of consecutive items on the same PE with no event
					// boundaries executes as one CPU burst.
					first := &t.Items[ii]
					th.Hop(nodeOf(first.Node))
					for _, ev := range incoming[first.ID] {
						th.Wait(ev)
					}
					run := []*Item{first}
					flops := first.Flops
					for ii++; ii < len(t.Items); ii++ {
						next := &t.Items[ii]
						if nodeOf(next.Node) != nodeOf(first.Node) ||
							len(incoming[next.ID]) > 0 ||
							len(outgoing[run[len(run)-1].ID]) > 0 {
							break
						}
						run = append(run, next)
						flops += next.Flops
					}
					th.Compute(flops, func() {
						for _, it := range run {
							if it.Fn != nil {
								it.Fn()
							}
						}
					})
					for _, ev := range outgoing[run[len(run)-1].ID] {
						th.Signal(ev)
					}
				}
			})
		}
	})
	if err != nil {
		return fmt.Errorf("core: plan execution: %w", err)
	}
	// The handles are minted once Inject has accepted the program: a
	// system that already ran refuses it above.
	for _, d := range p.Deps {
		ev := sys.Event("dep:" + d.Before + ">" + d.After)
		incoming[d.After] = append(incoming[d.After], ev)
		outgoing[d.Before] = append(outgoing[d.Before], ev)
	}
	carry = sys.Var("carry")
	if err := sys.Run(); err != nil {
		return fmt.Errorf("core: plan execution: %w", err)
	}
	return nil
}
