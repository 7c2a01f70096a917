package navp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simBackend executes agents as processes on a discrete-event kernel,
// charging hop, compute, and daemon costs against the machine model.
type simBackend struct {
	kernel  *sim.Kernel
	cluster *machine.Cluster
	fault   *simFault      // chaos injection, nil when no plan is set
	events  [][]*sim.Event // per node, by event handle id, created at first use
}

// NewSim builds a NavP system of n nodes on a fresh simulation kernel
// with the given runtime and hardware parameters.
func NewSim(cfg Config, hw machine.Config, n int) *System {
	k := sim.New()
	b := &simBackend{kernel: k, cluster: machine.NewCluster(k, hw, n), events: make([][]*sim.Event, n)}
	return newSystem(cfg, b, n)
}

// Cluster returns the machine model beneath a simulation-backed system,
// or nil for a real-backed system. It gives experiments access to pagers
// and hardware parameters.
func (s *System) Cluster() *machine.Cluster {
	if b, ok := s.backend.(*simBackend); ok {
		return b.cluster
	}
	return nil
}

// VirtualTime returns the kernel's current virtual time for a
// simulation-backed system (the program's finish time after Run). It
// panics on a real-backed system.
func (s *System) VirtualTime() sim.Time {
	b, ok := s.backend.(*simBackend)
	if !ok {
		panic("navp: VirtualTime on a real-backed system")
	}
	return b.kernel.Now()
}

func (b *simBackend) run(s *System) error {
	for _, pi := range s.pending {
		b.spawn(s, pi.name, s.nodes[pi.node], pi.fn)
	}
	s.pending = nil
	return b.kernel.Run()
}

// spawn starts an agent on nd as a kernel process, named after the agent
// and its birth node in deadlock diagnostics.
func (b *simBackend) spawn(s *System, name Name, nd *Node, fn func(*Agent)) {
	ag := newAgent(s, name, nd)
	b.kernel.Spawn(fmt.Sprintf("%s@n%d", ag.Name(), nd.id), func(p *sim.Proc) {
		ag.proc = p
		fn(ag)
	})
}

func (b *simBackend) hop(ag *Agent, dst int) {
	src := ag.node.id
	if src == dst {
		return
	}
	start := ag.proc.Now()
	bytes := ag.PayloadBytes()
	if b.fault != nil {
		b.fault.hop(b, ag, src, dst, bytes)
	} else {
		readyAt := b.cluster.SendCost(ag.proc, src, dst, bytes)
		b.cluster.RecvCost(ag.proc, dst, readyAt, false)
		// Daemon dispatch at the destination occupies the arriving thread,
		// not the CPU resource (see machine.SendCost for the rationale).
		ag.proc.Sleep(ag.sys.cfg.HopOverhead)
	}
	ag.node = ag.sys.nodes[dst]
	ag.sys.record(trace.TraceEvent{Kind: trace.TraceHop, Agent: ag.Name(), From: src, To: dst,
		Bytes: bytes, Start: start, End: ag.proc.Now()})
}

// computeStart returns the service start: queueing for the CPU is not
// "computing".
func (b *simBackend) computeStart(ag *Agent) sim.Time {
	b.cluster.PEs[ag.node.id].StartCompute(ag.proc)
	return ag.proc.Now()
}

func (b *simBackend) computeEnd(ag *Agent, flops float64, start sim.Time) {
	b.cluster.PEs[ag.node.id].EndCompute(ag.proc, flops)
	ag.sys.record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: ag.Name(), From: ag.node.id,
		To: ag.node.id, Start: start, End: ag.proc.Now()})
}

// simEvent fetches the sim event of ev on nd, creating it at its first
// use, named "n<node>:<event name>" for deadlock diagnostics.
func (b *simBackend) simEvent(s *System, nd *Node, ev Event) *sim.Event {
	events := b.events[nd.id]
	if int(ev.id) >= len(events) {
		events = append(events, make([]*sim.Event, int(ev.id)+1-len(events))...)
		b.events[nd.id] = events
	}
	if events[ev.id] == nil {
		events[ev.id] = sim.NewEvent(fmt.Sprintf("n%d:%s", nd.id, s.EventName(ev)))
	}
	return events[ev.id]
}

func (b *simBackend) wait(ag *Agent, ev Event) {
	start := ag.proc.Now()
	if o := ag.sys.cfg.EventOverhead; o > 0 {
		ag.proc.Sleep(o)
	}
	node := ag.node // record the wait against the node we waited on
	b.simEvent(ag.sys, node, ev).Wait(ag.proc)
	if ag.sys.tracer != nil {
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceWait, Agent: ag.Name(), From: node.id,
			To: node.id, Label: ag.sys.EventName(ev), Start: start, End: ag.proc.Now()})
	}
}

func (b *simBackend) signal(ag *Agent, ev Event) {
	if o := ag.sys.cfg.EventOverhead; o > 0 {
		ag.proc.Sleep(o)
	}
	b.simEvent(ag.sys, ag.node, ev).Signal()
	if ag.sys.tracer != nil {
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceSignal, Agent: ag.Name(), From: ag.node.id,
			To: ag.node.id, Label: ag.sys.EventName(ev), Start: ag.proc.Now(), End: ag.proc.Now()})
	}
}

func (b *simBackend) inject(parent *Agent, name Name, fn func(*Agent)) {
	if o := parent.sys.cfg.InjectOverhead; o > 0 {
		parent.proc.Sleep(o)
	}
	parent.sys.record(trace.TraceEvent{Kind: trace.TraceInject, Agent: parent.Name(),
		From: parent.node.id, To: parent.node.id, Label: name.String(),
		Start: parent.proc.Now(), End: parent.proc.Now()})
	b.spawn(parent.sys, name, parent.node, fn)
}

func (b *simBackend) touch(ag *Agent, key string, bytes int64) {
	b.cluster.PEs[ag.node.id].Mem.Touch(ag.proc, key, bytes)
}

func (b *simBackend) now(ag *Agent) sim.Time { return ag.proc.Now() }
