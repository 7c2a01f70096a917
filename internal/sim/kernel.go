// Package sim provides a deterministic discrete-event simulation kernel.
//
// The kernel drives a set of cooperatively scheduled processes over a
// virtual clock. Exactly one process executes at any instant, and all
// scheduling queues are FIFO with stable tie-breaking, so a simulation is
// fully deterministic: the same program produces the same event ordering
// and the same virtual finish times on every run, independent of the host
// machine's core count or load.
//
// Each process is a coroutine (Coro) that the kernel's run loop resumes
// and that suspends whenever it blocks on a primitive (Sleep, Event.Wait,
// Resource.Acquire, Chan.Send/Recv). The kernel advances virtual time
// only when no process is runnable, jumping directly to the next timed
// wakeup.
//
// The package is the substrate for the NavP runtime (internal/navp), the
// message-passing library (internal/mp), and the cluster machine model
// (internal/machine) used to reproduce the paper's performance tables.
package sim

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Time is virtual time in seconds.
type Time = float64

// Kernel is a discrete-event simulation engine. Create one with New, add
// processes with Spawn, and execute with Run. A Kernel must not be reused
// after Run returns.
type Kernel struct {
	now     Time
	timers  timerHeap
	runq    Ring[*Proc]
	nextSeq uint64 // timer creation order
	live    int    // spawned processes that have not finished
	procs   []*Proc
	failure error
	running bool

	metDispatched *metrics.Counter
	metHorizon    *metrics.Gauge
}

// New returns an empty kernel at virtual time zero.
func New() *Kernel {
	k := &Kernel{}
	k.SetMetrics(nil) // no-op sinks until SetMetrics is called for real
	return k
}

// Now reports the current virtual time. It may be called between Run
// invocations or from within a process via Proc.Now.
func (k *Kernel) Now() Time { return k.now }

// Spawn registers a new process executing fn. The process becomes runnable
// immediately (it is appended to the ready queue) but does not execute
// until the kernel schedules it. Spawn may be called before Run or from
// inside a running process; calling it from any other goroutine while Run
// is in progress is a data race and must not be done.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.co.Start(fn, p)
	k.live++
	k.procs = append(k.procs, p)
	k.Ready(p)
	return p
}

// Ready appends a process parked with Proc.Park to the run queue.
// Calling it on a process that is not parked corrupts the scheduler;
// every Ready must pair with exactly one earlier Park.
func (k *Kernel) Ready(p *Proc) {
	p.blocked = false
	p.blockedOn = ""
	k.runq.PushBack(p)
}

// DeadlockError is returned by Run when live processes remain but none is
// runnable and no timed wakeup is pending.
type DeadlockError struct {
	// Time is the virtual time at which the simulation stalled.
	Time Time
	// Blocked lists the stuck processes as "name (waiting on X)".
	Blocked []string
}

// Error formats the deadlock diagnosis.
func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at t=%.6fs: %d process(es) blocked: %s",
		e.Time, len(e.Blocked), strings.Join(e.Blocked, "; "))
}

// Run executes the simulation until every spawned process has finished.
// It returns a *DeadlockError if processes remain blocked with no pending
// wakeups, or the panic value (wrapped) if a process panics. Before Run
// returns, every process still parked is unwound through its deferred
// calls.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called reentrantly")
	}
	k.running = true
	defer func() {
		k.running = false
		k.shutdown()
	}()
	for k.failure == nil {
		p, ok := k.runq.PopFront()
		if !ok {
			if k.timers.Len() == 0 {
				break
			}
			t := k.timers.peek().at
			if t < k.now {
				return fmt.Errorf("sim: timer in the past (%.9f < %.9f)", t, k.now)
			}
			k.now = t
			k.metHorizon.Set(int64(t * 1e6))
			for k.timers.Len() > 0 && k.timers.peek().at == t {
				k.Ready(k.timers.pop().p)
			}
			continue
		}
		k.metDispatched.Inc()
		k.step(p)
	}
	if k.failure != nil {
		return k.failure
	}
	if k.live > 0 {
		dl := &DeadlockError{Time: k.now}
		for _, p := range k.procs {
			if p.blocked {
				dl.Blocked = append(dl.Blocked, fmt.Sprintf("%s (waiting on %s)", p.name, p.blockedOn))
			}
		}
		sort.Strings(dl.Blocked)
		return dl
	}
	return nil
}

// step resumes p until it parks or finishes; a panic in p becomes the
// run's failure.
func (k *Kernel) step(p *Proc) {
	defer func() {
		if r := recover(); r != nil {
			k.failure = fmt.Errorf("sim: process %q panicked: %v", p.name, r)
		}
	}()
	if !p.co.Resume() {
		k.live--
	}
}

// shutdown unwinds every process that has not finished.
func (k *Kernel) shutdown() {
	for _, p := range k.procs {
		p.co.Stop()
	}
}
