// This file is the real-concurrency backend: wall-clock time and bare
// goroutines are its whole point, not a reproducibility bug.
//
//navplint:exempt simsafe
package navp

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// realBackend executes each agent as a real goroutine. PEs serialize
// computation with a per-node mutex (one CPU per PE, like the testbed);
// hops are bookkeeping; events are counting semaphores kept in their
// node's events map under the node's mu, as a MESSENGERS daemon keeps
// its node's events. The backend makes no timing promises — it exists
// to run the same NavP programs with genuine concurrency, validating
// that they are free of races and deadlocks and providing real
// testing.B numbers.
type realBackend struct {
	cpus    []sync.Mutex // one per node
	wg      sync.WaitGroup
	started time.Time
}

// realEvent is one named event of a node: count pending signals and the
// number of agents parked on wake, whose L is the node's mu.
type realEvent struct {
	count, waiting int
	wake           sync.Cond
}

// NewReal builds a NavP system of n nodes executed by real goroutines.
func NewReal(cfg Config, n int) *System {
	b := &realBackend{cpus: make([]sync.Mutex, n)}
	s := &System{cfg: cfg, backend: b, met: newNavpMetrics(nil)}
	for i := 0; i < n; i++ {
		s.nodes = append(s.nodes, newNode(i))
	}
	return s
}

func (b *realBackend) run(s *System) error {
	b.started = time.Now()
	for _, pi := range s.pending {
		pi := pi
		ag := &Agent{name: pi.name, sys: s, node: s.nodes[pi.node], vars: map[string]agentVar{}}
		b.wg.Add(1)
		go func() {
			defer b.wg.Done()
			pi.fn(ag)
		}()
	}
	s.pending = nil
	b.wg.Wait()
	return nil
}

func (b *realBackend) hop(ag *Agent, dst int) {
	src := ag.node.id
	if src == dst {
		return
	}
	ag.node = ag.sys.nodes[dst]
	if ag.sys.tracer != nil {
		now := b.elapsed()
		ag.sys.record(TraceEvent{Kind: TraceHop, Agent: ag.name, From: src, To: dst,
			Bytes: ag.PayloadBytes(), Start: now, End: now})
	}
}

// compute runs fn holding the PE's CPU; a traced interval is the time it
// held it, so queueing for the CPU is not "computing".
func (b *realBackend) compute(ag *Agent, flops float64, fn func()) {
	id := ag.node.id
	b.cpus[id].Lock()
	start := b.stamp(ag.sys)
	if fn != nil {
		fn()
	}
	end := b.stamp(ag.sys)
	b.cpus[id].Unlock()
	if ag.sys.tracer != nil {
		ag.sys.record(TraceEvent{Kind: TraceCompute, Agent: ag.name, From: id, To: id,
			Start: start, End: end})
	}
}

// realEvent fetches or creates the event name on nd. nd.mu must be held.
func (b *realBackend) realEvent(nd *Node, name string) *realEvent {
	if es, ok := nd.events[name]; ok {
		return es.(*realEvent)
	}
	ev := &realEvent{}
	ev.wake.L = &nd.mu
	nd.events[name] = ev
	return ev
}

// wait consumes one signal of event, parking until one is pending. The
// last consumer of a quiet event deletes it, so a node holds entries only
// for events with pending signals or parked waiters.
func (b *realBackend) wait(ag *Agent, event string) {
	nd := ag.node
	start := b.stamp(ag.sys)
	nd.mu.Lock()
	ev := b.realEvent(nd, event)
	for ev.count == 0 {
		ev.waiting++
		ev.wake.Wait()
		ev.waiting--
	}
	ev.count--
	if ev.count == 0 && ev.waiting == 0 {
		delete(nd.events, event)
	}
	nd.mu.Unlock()
	if ag.sys.tracer != nil {
		ag.sys.record(TraceEvent{Kind: TraceWait, Agent: ag.name, From: nd.id, To: nd.id,
			Label: event, Start: start, End: b.elapsed()})
	}
}

func (b *realBackend) signal(ag *Agent, event string) {
	nd := ag.node
	nd.mu.Lock()
	ev := b.realEvent(nd, event)
	ev.count++
	if ev.waiting > 0 {
		ev.wake.Signal()
	}
	nd.mu.Unlock()
}

func (b *realBackend) inject(parent *Agent, name string, fn func(*Agent)) {
	child := &Agent{name: name, sys: parent.sys, node: parent.node, vars: map[string]agentVar{}}
	b.wg.Add(1)
	go func() {
		defer b.wg.Done()
		fn(child)
	}()
}

func (b *realBackend) touch(ag *Agent, key string, bytes int64) {}

func (b *realBackend) elapsed() sim.Time { return time.Since(b.started).Seconds() }

// stamp reads the clock for a trace event, or returns 0 when s has no
// tracer: untraced runs read no clock on the hot path.
func (b *realBackend) stamp(s *System) sim.Time {
	if s.tracer == nil {
		return 0
	}
	return b.elapsed()
}

func (b *realBackend) now(ag *Agent) sim.Time { return b.elapsed() }
