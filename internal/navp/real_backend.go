// This file is the real-concurrency backend: wall-clock time and bare
// goroutines are its whole point, not a reproducibility bug.
//
//navplint:exempt simsafe
package navp

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
	"repro/internal/trace"
)

// realBackend runs each PE as one non-preemptive loop, the MESSENGERS
// daemon of the paper's §2, and each agent as a sim.Coro coroutine that
// the loop resumes. An agent runs until its next scheduling point:
// a hop to another PE or a Wait with no pending signal. Everything
// else — compute, signal, inject, a hop between virtual cells on one
// PE — runs inline, because the loop is the PE's CPU.
//
// A loop's run queue, and its node's events and variables, are touched
// only by that loop; the inbox is the one structure other loops write.
// The events are records held by value in pages indexed by handle, so
// signalling or waiting hashes nothing and, once a page is touched,
// allocates nothing. The queue order is:
//
//   - agents arriving from other PEs and waiters handed a signal join
//     the tail, so each link delivers in the order agents left (one
//     loop forwards in order);
//   - children an agent injected during its step go ahead of the queue,
//     in injection order, when the step ends (Go's runnext rule for a
//     new goroutine), so a freshly distributed agent does not wait
//     behind agents already queued on its PE.
//
// The backend makes no timing promises. It runs the same NavP programs
// with genuine parallelism across PEs, validates that they are free of
// races and deadlocks, and provides real testing.B numbers.
type realBackend struct {
	pes     []*peLoop
	live    atomic.Int64  // agents created and not yet returned
	done    chan struct{} // closed when live reaches 0, or on a deadlock
	started time.Time

	idleMu  sync.Mutex
	idle    int  // loops waiting for work, under idleMu
	stalled bool // every loop idle with live agents parked, under idleMu
}

// peLoop is one PE's scheduler.
type peLoop struct {
	b     *realBackend
	id    int
	runq  sim.Ring[*Agent]
	born  []*Agent     // children injected during the running step
	pages []*eventPage // the node's event records by handle id, a page at first touch

	mu      sync.Mutex
	inbox   []*Agent // arrivals from other loops, under mu
	spare   []*Agent // the drained inbox, swapped back in by drain
	arrived atomic.Bool
	wake    chan struct{} // one slot: work was delivered
}

// realEvent is one event of a node: pending signals, or a FIFO of
// parked waiters. The waiters form a ring through Agent.link: last is
// the newest, and last.link the oldest, so one pointer serves both
// ends. A signal is handed straight to a waiter, so count and waiters
// are never both non-zero; the zero record is an event with neither.
type realEvent struct {
	count int
	last  *Agent
}

// pageBits sets the events per page of a loop's event table: 512
// records, 8 KB.
const pageBits = 9

// eventPage holds the records of 1<<pageBits consecutive handles.
type eventPage [1 << pageBits]realEvent

// event returns the loop's record of ev. A loop's events are paged: the
// page holding a handle is allocated at the loop's first touch of it,
// so a loop pays only for the handle runs its PE uses (a quarter of a
// Phase2D solve's, whose EP:i:j:k events for one row-half are runs of
// 512 on one PE). Run sizes the page index to the events minted before
// it; it grows only for events the string forms of WaitEvent and
// SignalEvent mint while the program runs.
func (l *peLoop) event(ev Event) *realEvent {
	p := int(ev.id >> pageBits)
	if p >= len(l.pages) {
		l.pages = append(l.pages, make([]*eventPage, p+1-len(l.pages))...)
	}
	pg := l.pages[p]
	if pg == nil {
		pg = new(eventPage)
		l.pages[p] = pg
	}
	return &pg[ev.id&(1<<pageBits-1)]
}

// NewReal builds a NavP system of n nodes, each run by one goroutine
// that schedules its resident agents as coroutines. Run returns a
// *sim.DeadlockError when every live agent is parked on an event.
func NewReal(cfg Config, n int) *System {
	b := &realBackend{done: make(chan struct{})}
	for i := 0; i < n; i++ {
		b.pes = append(b.pes, &peLoop{b: b, id: i, wake: make(chan struct{}, 1)})
	}
	return newSystem(cfg, b, n)
}

func (b *realBackend) run(s *System) error {
	b.started = time.Now()
	pages := (int(s.nevents.Load()) + 1<<pageBits - 1) >> pageBits
	for _, l := range b.pes {
		l.pages = make([]*eventPage, pages)
	}
	for _, pi := range s.pending {
		b.pes[pi.node].runq.PushBack(b.spawn(s, pi.name, s.nodes[pi.node], pi.fn))
	}
	s.pending = nil
	if b.live.Load() == 0 {
		return nil
	}
	var loops sync.WaitGroup
	for _, l := range b.pes {
		loops.Add(1)
		go func() {
			defer loops.Done()
			l.run()
		}()
	}
	// Waiting for the loops, not just for done, orders every agent's
	// writes before the caller's reads.
	loops.Wait()
	if b.stalled {
		return b.unwind(s)
	}
	return nil
}

// spawn creates an agent on nd whose body is a suspended coroutine.
func (b *realBackend) spawn(s *System, name Name, nd *Node, fn func(*Agent)) *Agent {
	ag := newAgent(s, name, nd)
	ag.co.Start(fn, ag)
	b.live.Add(1)
	return ag
}

// run schedules the loop's agents until the run is over.
func (l *peLoop) run() {
	for {
		if l.arrived.Load() {
			l.drain()
		}
		ag, ok := l.runq.PopFront()
		if !ok {
			if !l.await() {
				return
			}
			continue
		}
		l.step(ag)
	}
}

// step runs ag to its next scheduling point, forwards it if it hopped
// away, and queues the children it injected ahead of the queue.
func (l *peLoop) step(ag *Agent) {
	b := l.b
	if !ag.co.Resume() {
		if b.live.Add(-1) == 0 {
			close(b.done)
		}
	} else if dst := ag.node.id; dst != l.id {
		b.pes[dst].deliver(ag)
	}
	for i := len(l.born) - 1; i >= 0; i-- {
		l.runq.PushFront(l.born[i])
		l.born[i] = nil
	}
	l.born = l.born[:0]
}

// deliver appends an agent arriving from another loop and wakes l.
func (l *peLoop) deliver(ag *Agent) {
	l.mu.Lock()
	l.inbox = append(l.inbox, ag)
	l.arrived.Store(true)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// drain moves every arrival to the tail of the run queue, swapping the
// inbox with its spare so neither buffer is reallocated.
func (l *peLoop) drain() {
	l.mu.Lock()
	in := l.inbox
	l.inbox, l.spare = l.spare[:0], nil
	l.arrived.Store(false)
	l.mu.Unlock()
	for i, ag := range in {
		l.runq.PushBack(ag)
		in[i] = nil
	}
	l.spare = in
}

// await blocks an idle loop until work is delivered (true) or the run
// is over (false). The last loop to go idle checks for a deadlock: with
// every loop idle and every inbox empty, no agent runs or is in flight,
// so the live agents that remain are all parked on events. live cannot
// change while every loop is idle, and a stall is declared once, so
// done is closed once.
func (l *peLoop) await() bool {
	b := l.b
	b.idleMu.Lock()
	b.idle++
	if !b.stalled && b.idle == len(b.pes) && b.live.Load() > 0 && b.quiet() {
		b.stalled = true
		close(b.done)
	}
	b.idleMu.Unlock()
	select {
	case <-l.wake:
		b.idleMu.Lock()
		b.idle--
		b.idleMu.Unlock()
		return true
	case <-b.done:
		return false
	}
}

// quiet reports whether no loop has an undrained arrival.
func (b *realBackend) quiet() bool {
	for _, l := range b.pes {
		if l.arrived.Load() {
			return false
		}
	}
	return true
}

// unwind reports a deadlock: it lists every parked agent, then stops
// its coroutine so Run leaks no goroutine.
func (b *realBackend) unwind(s *System) error {
	dl := &sim.DeadlockError{Time: b.elapsed()}
	var parked []*Agent
	for _, l := range b.pes {
		for p, pg := range l.pages {
			if pg == nil {
				continue
			}
			for i, ev := range pg {
				if ev.last == nil {
					continue
				}
				name := s.EventName(Event{s.id, uint32(p<<pageBits + i)})
				for w := ev.last.link; ; w = w.link {
					dl.Blocked = append(dl.Blocked, fmt.Sprintf("%s (waiting on %s@%d)", w.Name(), name, l.id))
					parked = append(parked, w)
					if w == ev.last {
						break
					}
				}
			}
		}
	}
	sort.Strings(dl.Blocked)
	for _, ag := range parked {
		ag.co.Stop()
	}
	return dl
}

func (b *realBackend) hop(ag *Agent, dst int) {
	src := ag.node.id
	if src == dst {
		return
	}
	ag.node = ag.sys.nodes[dst]
	if ag.sys.tracer != nil {
		now := b.elapsed()
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceHop, Agent: ag.Name(), From: src, To: dst,
			Bytes: ag.PayloadBytes(), Start: now, End: now})
	}
	ag.co.Suspend()
}

// computeStart and computeEnd bracket a Compute, whose fn runs inline:
// the loop running the agent is the PE's CPU.
func (b *realBackend) computeStart(ag *Agent) sim.Time { return b.stamp(ag.sys) }

func (b *realBackend) computeEnd(ag *Agent, flops float64, start sim.Time) {
	if ag.sys.tracer != nil {
		id := ag.node.id
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: ag.Name(), From: id, To: id,
			Start: start, End: b.elapsed()})
	}
}

// wait consumes one signal of ev, parking on the event's waiter FIFO
// until a signal is handed over.
func (b *realBackend) wait(ag *Agent, ev Event) {
	nd := ag.node
	start := b.stamp(ag.sys)
	if rec := b.pes[nd.id].event(ev); rec.count > 0 {
		rec.count--
	} else {
		if rec.last == nil {
			ag.link = ag
		} else {
			ag.link = rec.last.link
			rec.last.link = ag
		}
		rec.last = ag
		ag.co.Suspend()
	}
	if ag.sys.tracer != nil {
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceWait, Agent: ag.Name(), From: nd.id, To: nd.id,
			Label: ag.sys.EventName(ev), Start: start, End: b.elapsed()})
	}
}

// signal posts one signal of ev: it goes straight to the oldest parked
// waiter, which joins the tail of this loop's queue.
func (b *realBackend) signal(ag *Agent, ev Event) {
	l := b.pes[ag.node.id]
	rec := l.event(ev)
	if rec.last == nil {
		rec.count++
		return
	}
	w := rec.last.link
	if w == rec.last {
		rec.last = nil
	} else {
		rec.last.link = w.link
	}
	w.link = nil
	l.runq.PushBack(w)
}

func (b *realBackend) inject(parent *Agent, name Name, fn func(*Agent)) {
	l := b.pes[parent.node.id]
	l.born = append(l.born, b.spawn(parent.sys, name, parent.node, fn))
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
