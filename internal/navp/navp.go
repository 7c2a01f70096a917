// Package navp implements Navigational Programming: distributed parallel
// programs composed of self-migrating computations, as provided by the
// MESSENGERS system the paper builds on (§2).
//
// A program is a set of Agents (the paper's migrating computation
// threads). An agent executes ordinary Go code and navigates an abstract
// network of Nodes (PEs) with Hop. Data the agent carries lives in agent
// variables (private, travel with the agent, charged to every hop); large
// data lives in node variables (resident on one PE, shared by all agents
// currently there). Agents synchronize through counting events on nodes
// (Signal/Wait) and create new agents on their current node with Inject
// — injection is always local, as in MESSENGERS.
//
// Events and variables are dense integer handles, minted once per System
// before Run, as a MESSENGERS daemon resolves a program's names to slots
// when it loads it: one at a time (System.Event, System.Var) or a whole
// table per call (System.Events, System.Vars: one handle per index tuple,
// found by arithmetic with Table.At, At2 or At3). The system keeps one
// record per minting call and formats a handle's label ("EP:1:2:3") only
// where a person reads it: trace labels, deadlock reports and panic
// text. An agent's name is kept the same way when it is injected with
// InjectNamed(Named("ACarrier", i, j), ...): formatted at its first read.
//
// A System counts its program's hops, injections, waits and signals
// (MetricHops and the rest) per node, in plain integers only the node's
// loop writes, and adds them to the registry installed with SetMetrics
// when Run returns: PEs share no counter while the program runs.
//
//	sys := navp.NewSim(navp.DefaultConfig(), machine.SunBlade100(), 2)
//	x, done := sys.Var("x"), sys.Event("done")
//	sys.Node(1).Set(x, 42)
//	sys.Inject(0, "reader", func(ag *navp.Agent) {
//		ag.Hop(1)
//		ag.Node().Set(x, navp.NodeVar[int](ag.Node(), x)+1)
//		ag.Signal(done)
//	})
//
// Two interchangeable backends execute the same program text:
//
//   - NewSim: a deterministic virtual-time backend on the internal/sim
//     kernel and the internal/machine cluster model. Hops, computation,
//     and events are charged calibrated costs, so the paper's performance
//     tables can be regenerated exactly and reproducibly.
//   - NewReal: a real-concurrency backend with one non-preemptive run
//     loop per PE, the MESSENGERS daemon: each agent is a coroutine that
//     its PE's loop runs until its next hop to another PE or its next
//     wait with no pending signal, and the PEs run in parallel. It
//     executes the same programs on real cores and is used to validate
//     that the programs are race- and deadlock-free.
package navp

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Config holds the NavP runtime (MESSENGERS daemon) cost parameters used
// by the simulation backend. The real backend ignores costs.
type Config struct {
	// StateBytes is the fixed per-hop overhead of the migrating thread's
	// state (program counter, stack slice, bookkeeping), added to the
	// agent-variable payload on every hop.
	StateBytes int64
	// HopOverhead is daemon CPU time at the destination to enqueue and
	// dispatch an arriving computation.
	HopOverhead sim.Time
	// InjectOverhead is daemon CPU time to create a new computation.
	InjectOverhead sim.Time
	// EventOverhead is daemon CPU time per signalEvent/waitEvent call.
	EventOverhead sim.Time
}

// DefaultConfig returns MESSENGERS daemon costs calibrated for the
// paper's testbed (DESIGN.md §5).
func DefaultConfig() Config {
	return Config{
		StateBytes:     256,
		HopOverhead:    80e-6,
		InjectOverhead: 120e-6,
		EventOverhead:  15e-6,
	}
}

// System is a NavP machine: a set of nodes plus a backend that executes
// agents. Create with NewSim or NewReal, stage initial computations with
// Inject, then call Run.
type System struct {
	id      uint32 // the tag of every handle the system mints
	cfg     Config
	nodes   []*Node
	backend backend
	tracer  trace.Tracer
	metrics *metrics.Registry
	pending []pendingInject
	ran     bool

	// One record per minting call (handles.go). Variables and the
	// events minted before Run do not change during it; the string forms
	// of WaitEvent and SignalEvent mint events while it runs, so reading
	// events during Run takes namedMu, and nevents is their count.
	vars    []handleRange
	events  []handleRange
	nvars   uint32
	nevents atomic.Uint32
	namedMu sync.Mutex
	named   map[string]Event // events minted by the string forms, under namedMu
}

// newSystem builds a system of n nodes on backend b.
func newSystem(cfg Config, b backend, n int) *System {
	s := &System{id: systems.Add(1), cfg: cfg, backend: b}
	for i := 0; i < n; i++ {
		s.nodes = append(s.nodes, &Node{id: i, sys: s})
	}
	return s
}

type pendingInject struct {
	node int
	name Name
	fn   func(*Agent)
}

// backend abstracts the execution engine.
type backend interface {
	run(s *System) error
	hop(ag *Agent, dst int)
	// computeStart and computeEnd bracket the fn of a Compute, which
	// Agent.Compute calls itself so that fn never escapes.
	computeStart(ag *Agent) sim.Time
	computeEnd(ag *Agent, flops float64, start sim.Time)
	wait(ag *Agent, ev Event)
	signal(ag *Agent, ev Event)
	inject(parent *Agent, name Name, fn func(*Agent))
	touch(ag *Agent, key string, bytes int64)
	now(ag *Agent) sim.Time
}

// Node is one PE of the NavP network: a holder of node variables. Its
// events are held by the backend (on the goroutine backend, by the
// node's run loop).
//
// While the program runs, a node's variables belong to the agents on
// it, as its CPU does: on the goroutine backend only the node's loop
// touches them, so they take no lock. Set them up before Run and read
// the results after it. The node's counts of program actions belong to
// its loop the same way.
type Node struct {
	id     int
	sys    *System
	vars   []any // by Var id, grown to the highest id set
	counts programCounts
}

// ID returns the node's identifier (0..n-1).
func (nd *Node) ID() int { return nd.id }

// Get returns node variable v, or nil if unset. Node variables are
// shared by all agents resident on the node, matching the paper's "node
// variables ... shared by all computation threads currently on that
// PE".
func (nd *Node) Get(v Var) any {
	nd.sys.checkVar(v)
	if int(v.id) < len(nd.vars) {
		return nd.vars[v.id]
	}
	return nil
}

// Set assigns node variable v.
func (nd *Node) Set(v Var, val any) {
	nd.sys.checkVar(v)
	if int(v.id) >= len(nd.vars) {
		nd.vars = append(nd.vars, make([]any, int(v.id)+1-len(nd.vars))...)
	}
	nd.vars[v.id] = val
}

// NodeVar returns node variable v of nd as a T, panicking with a
// descriptive message when it is unset or has another type — the NavP
// equivalent of a wild pointer, best caught loudly.
func NodeVar[T any](nd *Node, v Var) T {
	val := nd.Get(v)
	if val == nil {
		panic(fmt.Sprintf("navp: node %d has no variable %q", nd.id, nd.sys.VarName(v)))
	}
	t, ok := val.(T)
	if !ok {
		panic(fmt.Sprintf("navp: node %d variable %q has type %T, not %T", nd.id, nd.sys.VarName(v), val, t))
	}
	return t
}

// Nodes returns the number of nodes in the system.
func (s *System) Nodes() int { return len(s.nodes) }

// Node returns node i.
func (s *System) Node(i int) *Node { return s.nodes[i] }

// SetTracer installs a tracer. It must be called before Run.
func (s *System) SetTracer(t trace.Tracer) { s.tracer = t }

// Simulated reports whether the system runs on the deterministic
// virtual-time backend (as opposed to the real run loops). Both backends
// deliver the agents on each link in the order they left, as a real
// network does; a program can consult this to keep a protocol whose
// liveness has been checked only under the simulation's schedule.
func (s *System) Simulated() bool {
	_, ok := s.backend.(*simBackend)
	return ok
}

// ErrSystemDone reports that a System has already executed its staged
// program: Run was called. Inject and Run return it (wrapped with
// context) rather than corrupting a finished run, and Event and Var
// panic with it; a System runs one program, so the next one needs a
// fresh System.
var ErrSystemDone = errors.New("navp: system already ran")

// Inject stages an initial computation named name at the given node, the
// equivalent of injecting a Messenger from the command line. Staged
// computations begin when Run is called, in injection order. After Run
// it returns ErrSystemDone (use Agent.Inject from inside a running
// program); the error may be ignored by callers that stage strictly
// before running.
func (s *System) Inject(node int, name string, fn func(*Agent)) error {
	if s.ran {
		return fmt.Errorf("navp: Inject: %w (use Agent.Inject from inside the program)", ErrSystemDone)
	}
	if node < 0 || node >= len(s.nodes) {
		panic(fmt.Sprintf("navp: Inject at node %d of %d", node, len(s.nodes)))
	}
	s.pending = append(s.pending, pendingInject{node: node, name: Named(name), fn: fn})
	return nil
}

// Run executes all staged computations (and everything they inject) to
// completion. It returns a *sim.DeadlockError if the program deadlocks
// — on the real backend, when every PE's loop is idle and the live
// agents are all parked on events; their coroutines are unwound before
// Run returns. A second Run returns ErrSystemDone.
func (s *System) Run() error {
	if s.ran {
		return fmt.Errorf("navp: Run: %w", ErrSystemDone)
	}
	s.ran = true
	// The program's counts reach the registry once, when the backend
	// returns, however it returns; staged injections count with them.
	defer s.foldCounts(int64(len(s.pending)))
	return s.backend.run(s)
}

// record reports ev to the tracer, if one is installed.
func (s *System) record(ev trace.TraceEvent) {
	if s.tracer != nil {
		s.tracer.Record(ev)
	}
}

// Agent is a self-migrating computation. All methods must be called from
// the agent's own execution context (the function passed to Inject).
type Agent struct {
	label Name   // the agent's name, in parts
	name  string // label formatted, at its first read
	sys   *System
	node  *Node
	vars  []agentVar // in inline until a third variable is set
	bytes int64      // cached sum of agent-variable sizes

	inline [2]agentVar

	proc *sim.Proc // sim backend only

	// Real backend only: the agent's coroutine, and its link in the
	// waiter FIFO of the event it is parked on.
	co   sim.Coro[*Agent]
	link *Agent
}

type agentVar struct {
	key   Var
	value any
	bytes int64
}

// newAgent returns an agent named label on nd with no variables.
func newAgent(s *System, label Name, nd *Node) *Agent {
	ag := &Agent{label: label, sys: s, node: nd}
	ag.vars = ag.inline[:0]
	return ag
}

// Name is an agent's name kept as its parts, a prefix and up to two
// indices, as "ACarrier(1,2)" is "ACarrier" with 1 and 2. An agent's
// name is read only where a person reads it (Agent.Name, traces,
// deadlock reports, panic text), so a program that injects thousands
// of carriers formats none of their names unless one is read.
type Name struct {
	prefix string
	n      int // indices in use
	i, j   int
}

// Named returns the name prefix(i) or prefix(i,j), or prefix alone when
// no index is given. More than two indices panic.
func Named(prefix string, idx ...int) Name {
	nm := Name{prefix: prefix, n: len(idx)}
	switch len(idx) {
	case 0:
	case 2:
		nm.j = idx[1]
		fallthrough
	case 1:
		nm.i = idx[0]
	default:
		panic(fmt.Sprintf("navp: Named(%q) with %d indices, at most 2", prefix, len(idx)))
	}
	return nm
}

// String formats the name: "prefix", "prefix(i)" or "prefix(i,j)".
func (nm Name) String() string {
	if nm.n == 0 {
		return nm.prefix
	}
	b := make([]byte, 0, len(nm.prefix)+2+nm.n*8)
	b = strconv.AppendInt(append(append(b, nm.prefix...), '('), int64(nm.i), 10)
	if nm.n == 2 {
		b = strconv.AppendInt(append(b, ','), int64(nm.j), 10)
	}
	return string(append(b, ')'))
}

// find returns the index of agent variable v in ag.vars, or -1.
func (ag *Agent) find(v Var) int {
	ag.sys.checkVar(v)
	for i := range ag.vars {
		if ag.vars[i].key == v {
			return i
		}
	}
	return -1
}

// Name returns the agent's name, formatted at its first read and kept:
// only the agent's own context and a finished Run read it.
func (ag *Agent) Name() string {
	if ag.name == "" {
		ag.name = ag.label.String()
	}
	return ag.name
}

// Node returns the node the agent currently resides on.
func (ag *Agent) Node() *Node { return ag.node }

// System returns the system the agent runs in.
func (ag *Agent) System() *System { return ag.sys }

// Set stores an agent variable: private data that travels with the agent.
// bytes is its payload size, charged on every subsequent hop (the paper's
// "small data is carried by the moving computation in agent variables").
func (ag *Agent) Set(v Var, val any, bytes int64) {
	if i := ag.find(v); i >= 0 {
		ag.bytes += bytes - ag.vars[i].bytes
		ag.vars[i].value, ag.vars[i].bytes = val, bytes
		return
	}
	ag.vars = append(ag.vars, agentVar{key: v, value: val, bytes: bytes})
	ag.bytes += bytes
}

// Get returns agent variable v, or nil.
func (ag *Agent) Get(v Var) any {
	if i := ag.find(v); i >= 0 {
		return ag.vars[i].value
	}
	return nil
}

// Delete removes agent variable v, reducing future hop payloads.
func (ag *Agent) Delete(v Var) {
	if i := ag.find(v); i >= 0 {
		ag.bytes -= ag.vars[i].bytes
		last := len(ag.vars) - 1
		ag.vars[i] = ag.vars[last]
		ag.vars[last] = agentVar{}
		ag.vars = ag.vars[:last]
	}
}

// PayloadBytes returns the size charged to a hop right now: the sum of
// agent-variable sizes plus the fixed thread-state overhead.
func (ag *Agent) PayloadBytes() int64 { return ag.bytes + ag.sys.cfg.StateBytes }

// AgentVar returns agent variable v as a T, panicking if unset or of
// another type.
func AgentVar[T any](ag *Agent, v Var) T {
	val := ag.Get(v)
	if val == nil {
		panic(fmt.Sprintf("navp: agent %q has no variable %q", ag.Name(), ag.sys.VarName(v)))
	}
	t, ok := val.(T)
	if !ok {
		panic(fmt.Sprintf("navp: agent %q variable %q has type %T, not %T", ag.Name(), ag.sys.VarName(v), val, t))
	}
	return t
}

// Hop migrates the computation to node dst, the paper's hop() statement.
// The agent's code does not move (it is already everywhere); its agent
// variables and a small amount of state do, and the hop is charged their
// transfer time. Hopping to the current node is free.
func (ag *Agent) Hop(dst int) {
	if dst < 0 || dst >= len(ag.sys.nodes) {
		panic(fmt.Sprintf("navp: agent %q hop to node %d of %d", ag.Name(), dst, len(ag.sys.nodes)))
	}
	ag.node.counts.hops++
	ag.sys.backend.hop(ag, dst)
}

// Compute performs fn on the current node, charging flops of CPU work.
// The node has one CPU: concurrent computations on the same node
// serialize in arrival order (the MESSENGERS daemon's task queue). fn may
// be nil when only the cost matters. fn runs before Compute returns and
// is not retained, so a closure passed here stays on the caller's stack.
func (ag *Agent) Compute(flops float64, fn func()) {
	b := ag.sys.backend
	start := b.computeStart(ag)
	if fn != nil {
		fn()
	}
	b.computeEnd(ag, flops, start)
}

// Wait blocks until event ev on the *current* node has a pending
// signal, then consumes it (counting semantics; signals are never lost).
func (ag *Agent) Wait(ev Event) {
	ag.sys.checkEvent(ev)
	ag.node.counts.waits++
	ag.sys.backend.wait(ag, ev)
}

// Signal posts one signal of event ev on the current node.
func (ag *Agent) Signal(ev Event) {
	ag.sys.checkEvent(ev)
	ag.node.counts.signals++
	ag.sys.backend.signal(ag, ev)
}

// WaitEvent is Wait on the event a string names, minted at the name's
// first use by WaitEvent or SignalEvent and looked up by name on every
// call. It is kept for callers that have not minted their events: a
// name here is a different event from any handle System.Event minted.
//
// Deprecated: mint the event with System.Event before Run and call Wait.
func (ag *Agent) WaitEvent(name string) { ag.Wait(ag.sys.namedEvent(name)) }

// SignalEvent is Signal on the event a string names, as WaitEvent.
//
// Deprecated: mint the event with System.Event before Run and call
// Signal.
func (ag *Agent) SignalEvent(name string) { ag.Signal(ag.sys.namedEvent(name)) }

// Inject spawns a new computation on the agent's current node — "all
// injections happen locally". The child starts with no agent variables.
func (ag *Agent) Inject(name string, fn func(*Agent)) { ag.InjectNamed(Named(name), fn) }

// InjectNamed is Inject for a child whose name is kept in parts, such
// as Named("ACarrier", i, j), and formatted only if it is read.
func (ag *Agent) InjectNamed(name Name, fn func(*Agent)) {
	ag.node.counts.injects++
	ag.sys.backend.inject(ag, name, fn)
}

// TouchMemory references bytes of data identified by key in the current
// node's memory. On the sim backend the access goes through the PE's LRU
// pager: a non-resident block charges its page-in time (the paper's
// virtual-memory thrashing, Table 2). On the real backend it is a no-op.
func (ag *Agent) TouchMemory(key string, bytes int64) {
	ag.sys.backend.touch(ag, key, bytes)
}

// Now returns the current time: virtual seconds on the sim backend,
// seconds since Run on the real backend.
func (ag *Agent) Now() sim.Time { return ag.sys.backend.now(ag) }
