// Quickstart: the Navigational Programming model in one page.
//
// A NavP program is made of self-migrating computations (Agents) that
// hop() across a network of PEs, carrying small private data in agent
// variables, reading and writing large resident data through node
// variables, and synchronizing with node-local counting events — the
// programming model of the MESSENGERS system from the paper. Variables
// and events are handles the program mints once, before it runs, as a
// MESSENGERS daemon resolves a program's names when it loads it.
//
// This example computes a distributed dot product: the two vectors are
// distributed across three PEs as node variables, and one migrating
// computation chases them, accumulating the partial sums in an agent
// variable it carries — the DSC (distributed sequential computing)
// pattern of §2. A second agent demonstrates events.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/navp"
)

func main() {
	const (
		pes       = 3
		perPE     = 4 // vector elements resident on each PE
		elemBytes = 8
	)

	// A simulated cluster of three workstations (the paper's testbed
	// model). navp.NewReal(cfg, pes) would run the same program on real
	// cores instead of virtual time: one run loop per PE, each agent a
	// coroutine on its PE's loop.
	sys := navp.NewSim(navp.DefaultConfig(), machine.SunBlade100(), pes)

	// Mint the program's variables and its one event. A name is only a
	// label for traces and errors; the handles are what the program uses.
	xv, yv, sumv, resultv := sys.Var("x"), sys.Var("y"), sys.Var("sum"), sys.Var("result")
	done := sys.Event("done")

	// Distribute the vectors: slice j lives on PE j as node variables
	// x and y. Node variables stay put; agents come to them.
	next := 1.0
	for pe := 0; pe < pes; pe++ {
		x := make([]float64, perPE)
		y := make([]float64, perPE)
		for i := range x {
			x[i] = next
			y[i] = 2
			next++
		}
		sys.Node(pe).Set(xv, x)
		sys.Node(pe).Set(yv, y)
	}

	// The migrating computation: visit every PE, accumulate the local
	// partial product into the carried agent variable sum, and leave
	// the result as a node variable on the last PE.
	sys.Inject(0, "DotCarrier", func(ag *navp.Agent) {
		sum := 0.0
		for pe := 0; pe < pes; pe++ {
			ag.Hop(pe) // chase the large data; carry the small data
			x := navp.NodeVar[[]float64](ag.Node(), xv)
			y := navp.NodeVar[[]float64](ag.Node(), yv)
			ag.Compute(float64(2*len(x)), func() {
				for i := range x {
					sum += x[i] * y[i]
				}
			})
			ag.Set(sumv, sum, elemBytes) // agent variables travel on hops
		}
		ag.Node().Set(resultv, sum)
		ag.Signal(done) // wake the reporter waiting on this node
	})

	// A second computation, injected independently, waits on the last PE
	// for the result — Signal/Wait (the paper's signalEvent/waitEvent)
	// are the NavP synchronization primitives, and they are node-local.
	sys.Inject(pes-1, "Reporter", func(ag *navp.Agent) {
		ag.Wait(done)
		result := navp.NodeVar[float64](ag.Node(), resultv)
		fmt.Printf("dot product  = %v\n", result)
		fmt.Printf("finish time  = %.6fs of simulated time on %d PEs\n", ag.Now(), pes)
	})

	if err := sys.Run(); err != nil {
		panic(err)
	}

	// 2·(1+2+...+12) = 156.
	fmt.Println("expected     = 156")
}
