// Package navp implements Navigational Programming: distributed parallel
// programs composed of self-migrating computations, as provided by the
// MESSENGERS system the paper builds on (§2).
//
// A program is a set of Agents (the paper's migrating computation
// threads). An agent executes ordinary Go code and navigates an abstract
// network of Nodes (PEs) with Hop. Data the agent carries lives in agent
// variables (private, travel with the agent, charged to every hop); large
// data lives in node variables (resident on one PE, shared by all agents
// currently there). Agents synchronize through named counting events on
// nodes (SignalEvent/WaitEvent) and create new agents on their current
// node with Inject — injection is always local, as in MESSENGERS.
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
	"sync"

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
	cfg     Config
	nodes   []*Node
	backend backend
	tracer  trace.Tracer
	metrics *metrics.Registry
	met     *navpMetrics
	pending []pendingInject
	ran     bool
}

type pendingInject struct {
	node int
	name string
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
	wait(ag *Agent, event string)
	signal(ag *Agent, event string)
	inject(parent *Agent, name string, fn func(*Agent))
	touch(ag *Agent, key string, bytes int64)
	now(ag *Agent) sim.Time
}

// Node is one PE of the NavP network: a holder of node variables. Its
// named events are held by the backend (on the goroutine backend, by
// the node's run loop).
type Node struct {
	id   int
	mu   sync.Mutex // guards vars; uncontended on sim
	vars map[string]any
}

func newNode(id int) *Node {
	return &Node{id: id, vars: map[string]any{}}
}

// ID returns the node's identifier (0..n-1).
func (nd *Node) ID() int { return nd.id }

// Get returns the node variable with the given name, or nil if unset.
// Node variables are shared by all agents resident on the node, matching
// the paper's "node variables ... shared by all computation threads
// currently on that PE".
func (nd *Node) Get(name string) any {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	return nd.vars[name]
}

// Set assigns a node variable.
func (nd *Node) Set(name string, v any) {
	nd.mu.Lock()
	defer nd.mu.Unlock()
	nd.vars[name] = v
}

// NodeVar returns node variable name of nd as a T, panicking with a
// descriptive message when it is unset or has another type — the NavP
// equivalent of a wild pointer, best caught loudly.
func NodeVar[T any](nd *Node, name string) T {
	v := nd.Get(name)
	if v == nil {
		panic(fmt.Sprintf("navp: node %d has no variable %q", nd.id, name))
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("navp: node %d variable %q has type %T, not %T", nd.id, name, v, t))
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
// context) rather than corrupting a finished run; a System runs one
// program, so the next one needs a fresh System.
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
	s.pending = append(s.pending, pendingInject{node: node, name: name, fn: fn})
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
	// Staged injections are counted here rather than in Inject, so a
	// registry installed after staging still sees them.
	s.met.injects.Add(int64(len(s.pending)))
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
	name  string
	sys   *System
	node  *Node
	vars  map[string]agentVar
	bytes int64 // cached sum of agent-variable sizes

	proc *sim.Proc // sim backend only

	// Real backend only: the agent's coroutine, and its link in the
	// waiter FIFO of the event it is parked on.
	co   sim.Coro[*Agent]
	link *Agent
}

type agentVar struct {
	value any
	bytes int64
}

// Name returns the agent's name.
func (ag *Agent) Name() string { return ag.name }

// Node returns the node the agent currently resides on.
func (ag *Agent) Node() *Node { return ag.node }

// System returns the system the agent runs in.
func (ag *Agent) System() *System { return ag.sys }

// Set stores an agent variable: private data that travels with the agent.
// bytes is its payload size, charged on every subsequent hop (the paper's
// "small data is carried by the moving computation in agent variables").
func (ag *Agent) Set(name string, v any, bytes int64) {
	if old, ok := ag.vars[name]; ok {
		ag.bytes -= old.bytes
	}
	ag.vars[name] = agentVar{value: v, bytes: bytes}
	ag.bytes += bytes
}

// Get returns the agent variable with the given name, or nil.
func (ag *Agent) Get(name string) any {
	if av, ok := ag.vars[name]; ok {
		return av.value
	}
	return nil
}

// Delete removes an agent variable, reducing future hop payloads.
func (ag *Agent) Delete(name string) {
	if av, ok := ag.vars[name]; ok {
		ag.bytes -= av.bytes
		delete(ag.vars, name)
	}
}

// PayloadBytes returns the size charged to a hop right now: the sum of
// agent-variable sizes plus the fixed thread-state overhead.
func (ag *Agent) PayloadBytes() int64 { return ag.bytes + ag.sys.cfg.StateBytes }

// AgentVar returns agent variable name as a T, panicking if unset or of
// another type.
func AgentVar[T any](ag *Agent, name string) T {
	v := ag.Get(name)
	if v == nil {
		panic(fmt.Sprintf("navp: agent %q has no variable %q", ag.name, name))
	}
	t, ok := v.(T)
	if !ok {
		panic(fmt.Sprintf("navp: agent %q variable %q has type %T, not %T", ag.name, name, v, t))
	}
	return t
}

// Hop migrates the computation to node dst, the paper's hop() statement.
// The agent's code does not move (it is already everywhere); its agent
// variables and a small amount of state do, and the hop is charged their
// transfer time. Hopping to the current node is free.
func (ag *Agent) Hop(dst int) {
	if dst < 0 || dst >= len(ag.sys.nodes) {
		panic(fmt.Sprintf("navp: agent %q hop to node %d of %d", ag.name, dst, len(ag.sys.nodes)))
	}
	ag.sys.met.hops.Inc()
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

// WaitEvent blocks until the named event on the *current* node has a
// pending signal, then consumes it (counting semantics; signals are never
// lost).
func (ag *Agent) WaitEvent(event string) {
	ag.sys.met.waits.Inc()
	ag.sys.backend.wait(ag, event)
}

// SignalEvent posts one signal of the named event on the current node.
func (ag *Agent) SignalEvent(event string) {
	ag.sys.met.signals.Inc()
	ag.sys.backend.signal(ag, event)
}

// Inject spawns a new computation on the agent's current node — "all
// injections happen locally". The child starts with no agent variables.
func (ag *Agent) Inject(name string, fn func(*Agent)) {
	ag.sys.met.injects.Inc()
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
