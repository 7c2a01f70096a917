// Package wire is a NavP runtime whose hops cross real sockets: a
// network of daemons on loopback TCP, each holding node variables and
// local events, with migrating computations shipped between them as
// gob-encoded state — the MESSENGERS architecture itself, rather than a
// model of it.
//
// Go cannot serialize a goroutine, and MESSENGERS never ships code
// either ("although the state of the computation is moved on each hop,
// the code is not moved", §2): every daemon pre-installs the program and
// only the thread's state travels. Accordingly, a wire agent is written
// as a Behavior — a step function invoked at each node it lands on,
// running to its next navigational decision:
//
//	wire.Register("RowCarrier", func(ctx *wire.Ctx) wire.Verdict {
//	    ... read ctx.State, use ctx.Node(), ctx.Wait/Signal ...
//	    return ctx.HopTo(next)   // or ctx.Done()
//	})
//
// Within a step the behavior has full local facilities: node variables,
// blocking waits on node-local events, local injection of new agents.
// Between steps, the agent's State (any gob-encodable value registered
// with RegisterState) is the only thing on the wire — the paper's agent
// variables.
//
// Cluster termination uses Mattern's four-counter method: a coordinator
// gathers (created, finished, sent, received) from every daemon and
// declares quiescence after two identical, balanced snapshots.
//
// # Fault tolerance
//
// The runtime survives crashed daemons, lost frames, and duplicated
// frames (see DESIGN.md §8). Hop boundaries are checkpoint boundaries:
// a daemon persists every arriving agent's state to its node-resident
// checkpoint store before dispatch, acknowledges the sender, and a
// restarted daemon re-injects checkpointed agents from their last
// completed hop. Senders retry unacknowledged hops with exponential
// backoff; receivers deduplicate by (agent ID, hop number). A behavior
// step may therefore execute more than once after a crash — steps must
// tolerate re-execution from their last hop boundary (idempotent node
// variable writes; see Ctx.Wait for the event caveat). Chaos scenarios
// are injected deterministically with a fault.Plan via NewClusterOpts.
package wire

import (
	"encoding/gob"
	"fmt"
	"sync"
	"sync/atomic"
)

// Verdict is a behavior step's navigational decision.
type Verdict struct {
	hop  bool
	dst  int
	stop bool
}

// Behavior is the pre-installed code of an agent kind. It is called once
// per node visit and must finish by returning ctx.HopTo(dst) or
// ctx.Done(). State mutations made through ctx.State travel with the
// agent.
type Behavior func(ctx *Ctx) Verdict

var (
	registryMu sync.RWMutex
	registry   = map[string]Behavior{}
)

// Register installs a behavior under a name, on every daemon in the
// process (the registry is global, as the program binary is on a real
// MESSENGERS cluster). Re-registering a name replaces the behavior.
func Register(name string, b Behavior) {
	if name == "" || b == nil {
		panic("wire: Register requires a name and a behavior")
	}
	registryMu.Lock()
	registry[name] = b
	registryMu.Unlock()
}

// behavior looks up a registered behavior.
func behavior(name string) (Behavior, error) {
	registryMu.RLock()
	b, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("wire: behavior %q not registered", name)
	}
	return b, nil
}

// RegisterState makes a state type encodable (a thin wrapper over
// gob.Register, so callers need not import encoding/gob).
func RegisterState(value any) { gob.Register(value) }

// Ctx is the execution context of one behavior step at one node.
type Ctx struct {
	daemon *daemon
	agent  *agentMsg
}

// NodeID returns the daemon's node id.
func (c *Ctx) NodeID() int { return c.daemon.id }

// Nodes returns the cluster size.
func (c *Ctx) Nodes() int { return c.daemon.members.size() }

// AgentID returns the agent's cluster-unique identity, assigned at
// injection and stable across hops, retries, and checkpoint replays.
func (c *Ctx) AgentID() uint64 { return c.agent.ID }

// HopCount returns the number of hop boundaries the agent has crossed
// (local re-dispatches included).
func (c *Ctx) HopCount() uint64 { return c.agent.Hop }

// Job returns the agent's job namespace (0 outside any job). It is
// inherited by every agent this one injects.
func (c *Ctx) Job() uint64 { return c.agent.Job }

// State returns the agent's carried state. Mutations to the returned
// value (for pointer kinds) persist across hops.
func (c *Ctx) State() any { return c.agent.State }

// SetState replaces the agent's carried state.
func (c *Ctx) SetState(v any) { c.agent.State = v }

// Get returns the node variable with the given name, or nil.
func (c *Ctx) Get(name string) any { return c.daemon.node.vars.get(name) }

// Set assigns a node variable. Node variables are node-resident state:
// they survive daemon restarts, and a step replayed after a crash
// re-assigns the same values, so writes should be idempotent.
func (c *Ctx) Set(name string, v any) { c.daemon.node.vars.set(name, v) }

// Wait blocks until the named node-local event has a pending signal,
// then consumes it. Waiting blocks only this agent's step; the daemon
// keeps serving other agents. If the daemon is killed while the agent
// waits, the step unwinds and is replayed from its last hop boundary
// after recovery — note that a signal consumed *before* the crash is
// consumed for good, so behaviors mixing Wait with crash-prone regions
// should keep the wait adjacent to its hop boundary.
func (c *Ctx) Wait(event string) {
	if !c.daemon.node.events.wait(event, &c.daemon.dead) {
		panic(errKilled)
	}
}

// Signal posts one signal of the named node-local event.
func (c *Ctx) Signal(event string) { c.daemon.node.events.signal(event) }

// Inject starts a new agent with the given behavior and state on this
// node — injection is local, as in MESSENGERS. The new agent inherits
// this agent's job namespace, so a job's termination detection covers
// its whole injection tree.
func (c *Ctx) Inject(behavior string, state any) {
	c.daemon.injectLocal(c.agent.Job, behavior, state)
}

// HopTo ends the step with a migration to node dst.
func (c *Ctx) HopTo(dst int) Verdict {
	if n := c.daemon.members.size(); dst < 0 || dst >= n {
		panic(fmt.Sprintf("wire: hop to node %d of %d", dst, n))
	}
	return Verdict{hop: true, dst: dst}
}

// Done ends the step and terminates the agent.
func (c *Ctx) Done() Verdict { return Verdict{stop: true} }

// store is a daemon's node-variable table.
type store struct {
	mu    sync.Mutex
	m     map[string]any
	dirty *dirtySet[string] // names changed since the last batch; nil without persistence
}

func newStore() *store { return &store{m: map[string]any{}} }

func (s *store) get(name string) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[name]
}

// set writes one variable. Variables are part of the persisted node
// image, so a set must reach the persister before any reply that
// implies it happened.
//
//navplint:fact durable
func (s *store) set(name string, v any) {
	s.mu.Lock()
	s.m[name] = v
	s.dirty.mark(name)
	s.mu.Unlock()
}

// deletePrefix removes every variable whose name begins with prefix.
// Like set, the removal is a durable mutation of the node image.
//
//navplint:fact durable
func (s *store) deletePrefix(prefix string) {
	s.mu.Lock()
	for name := range s.m {
		if len(name) >= len(prefix) && name[:len(prefix)] == prefix {
			delete(s.m, name)
			s.dirty.mark(name)
		}
	}
	s.mu.Unlock()
}

// events is a daemon's node-local counting-event table.
type events struct {
	mu sync.Mutex
	m  map[string]*eventState
}

type eventState struct {
	count int
	cond  *sync.Cond
}

func newEvents() *events { return &events{m: map[string]*eventState{}} }

func (e *events) state(name string) *eventState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st, ok := e.m[name]
	if !ok {
		st = &eventState{}
		st.cond = sync.NewCond(&e.mu)
		e.m[name] = st
	}
	return st
}

// wait consumes one signal of the named event, blocking until one is
// available. It returns false without consuming anything when cancelled
// becomes true (the waiting daemon incarnation was killed).
func (e *events) wait(name string, cancelled *atomic.Bool) bool {
	st := e.state(name)
	e.mu.Lock()
	for st.count == 0 {
		if cancelled != nil && cancelled.Load() {
			e.mu.Unlock()
			return false
		}
		st.cond.Wait()
	}
	st.count--
	e.mu.Unlock()
	return true
}

func (e *events) signal(name string) {
	st := e.state(name)
	e.mu.Lock()
	st.count++
	e.mu.Unlock()
	st.cond.Signal()
}

// interruptAll wakes every waiter so those belonging to a killed daemon
// incarnation can observe cancellation and unwind. Waiters of live
// incarnations re-check their condition and keep waiting.
func (e *events) interruptAll() {
	e.mu.Lock()
	for _, st := range e.m {
		st.cond.Broadcast()
	}
	e.mu.Unlock()
}
