package sim

// Proc is a simulated process: a coroutine that its Kernel's run loop
// resumes and that suspends whenever it blocks. All Proc methods must be
// called from within the process (the function passed to Spawn).
type Proc struct {
	k         *Kernel
	name      string
	co        Coro[*Proc]
	blocked   bool // parked, and not yet readied
	blockedOn string
}

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel scheduling this process.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// Park blocks the calling process until Kernel.Ready makes it runnable
// again. The caller must have registered itself with a waker (timer
// heap, event queue, resource queue, message matching in internal/mp,
// ...) before parking. The reason appears in deadlock diagnostics.
func (p *Proc) Park(reason string) {
	p.blocked = true
	p.blockedOn = reason
	p.co.Suspend()
}

// Sleep advances the process's local view of time by d seconds of virtual
// time. Other runnable processes execute in the interim. Sleep with d <= 0
// is equivalent to Yield.
func (p *Proc) Sleep(d Time) {
	if d <= 0 {
		p.Yield()
		return
	}
	p.SleepUntil(p.k.now + d)
}

// SleepUntil blocks the process until virtual time t. If t is not after
// the current time it is equivalent to Yield.
func (p *Proc) SleepUntil(t Time) {
	if t <= p.k.now {
		p.Yield()
		return
	}
	p.k.timers.push(timer{at: t, seq: p.k.nextSeq, p: p})
	p.k.nextSeq++
	// A process parked on a timer never appears in a DeadlockError: Run
	// declares a deadlock only once the timer heap is empty.
	p.Park("timer")
}

// Yield moves the process to the back of the ready queue, letting every
// other currently runnable process execute first. Virtual time does not
// advance.
func (p *Proc) Yield() {
	p.k.Ready(p)
	p.Park("yield") // already queued, so Run resumes p in its turn
}

// Spawn creates a child process on the same kernel. Injection is local in
// the MESSENGERS sense: the child starts on the same kernel and becomes
// runnable immediately.
func (p *Proc) Spawn(name string, fn func(*Proc)) *Proc {
	return p.k.Spawn(name, fn)
}
