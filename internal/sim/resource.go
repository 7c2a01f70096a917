package sim

import "fmt"

// Resource models a server with finite capacity — a CPU, a NIC, a disk —
// that processes acquire for a span of virtual time. Admission is strict
// FIFO: a large request at the head of the queue blocks smaller requests
// behind it, which prevents starvation and keeps scheduling deterministic.
type Resource struct {
	name     string
	reason   string // park reason, built once
	capacity int
	inUse    int
	waiters  Ring[resWaiter]
}

type resWaiter struct {
	p *Proc
	n int
}

// NewResource returns a resource with the given capacity (units are
// whatever the caller chooses: cores, concurrent DMA engines, ...).
// Capacity must be positive.
func NewResource(name string, capacity int) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q: capacity %d must be positive", name, capacity))
	}
	return &Resource{name: name, reason: "resource " + name, capacity: capacity}
}

// Name returns the resource's diagnostic name.
func (r *Resource) Name() string { return r.name }

// Capacity returns the total capacity.
func (r *Resource) Capacity() int { return r.capacity }

// InUse returns the number of units currently held.
func (r *Resource) InUse() int { return r.inUse }

// QueueLen returns the number of processes waiting to acquire.
func (r *Resource) QueueLen() int { return r.waiters.Len() }

// Acquire obtains n units, blocking the calling process in FIFO order
// until they are available. n must be between 1 and the capacity.
func (r *Resource) Acquire(p *Proc, n int) {
	if n <= 0 || n > r.capacity {
		panic(fmt.Sprintf("sim: resource %q: acquire %d of capacity %d", r.name, n, r.capacity))
	}
	if r.waiters.Len() == 0 && r.inUse+n <= r.capacity {
		r.inUse += n
		return
	}
	r.waiters.PushBack(resWaiter{p: p, n: n})
	p.Park(r.reason)
}

// Release returns n units and admits queued waiters (in FIFO order) whose
// requests now fit.
func (r *Resource) Release(n int) {
	r.inUse -= n
	if r.inUse < 0 {
		panic(fmt.Sprintf("sim: resource %q: released more than acquired", r.name))
	}
	for r.waiters.Len() > 0 {
		w := r.waiters.Front()
		if r.inUse+w.n > r.capacity {
			break
		}
		r.inUse += w.n
		r.waiters.PopFront()
		w.p.k.Ready(w.p)
	}
}

// Use acquires one unit, holds it for d seconds of virtual time, and
// releases it. It is the common pattern for charging service time: a CPU
// burst, a NIC serialization delay, a disk transfer.
func (r *Resource) Use(p *Proc, d Time) {
	r.Acquire(p, 1)
	p.Sleep(d)
	r.Release(1)
}
