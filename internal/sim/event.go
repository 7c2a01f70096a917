package sim

// Event is a named counting event, matching the semantics of MESSENGERS
// signalEvent()/waitEvent(): Signal increments a counter (or wakes the
// oldest waiter), Wait consumes one signal, blocking until one is
// available. Signals are never lost: signaling before anyone waits is
// permitted and the count accumulates.
//
// Waiters are released in FIFO order, so the simulation stays
// deterministic.
type Event struct {
	name    string
	reason  string // park reason, built once
	count   int
	waiters Ring[*Proc]
}

// NewEvent returns a counting event with an initial count of zero. The
// name is used only in deadlock diagnostics.
func NewEvent(name string) *Event { return &Event{name: name, reason: "event " + name} }

// Name returns the event's diagnostic name.
func (e *Event) Name() string { return e.name }

// Count returns the number of pending (unconsumed) signals.
func (e *Event) Count() int { return e.count }

// Signal posts one occurrence of the event. If a process is waiting, the
// oldest waiter is made runnable and consumes the signal; otherwise the
// pending count is incremented. Signal never blocks and may be called from
// any process on the same kernel.
func (e *Event) Signal() {
	if p, ok := e.waiters.PopFront(); ok {
		p.k.Ready(p)
		return
	}
	e.count++
}

// Wait consumes one pending signal, blocking the calling process until a
// signal is available.
func (e *Event) Wait(p *Proc) {
	if e.TryWait() {
		return
	}
	e.waiters.PushBack(p)
	p.Park(e.reason)
}

// TryWait consumes a pending signal if one is available and reports
// whether it did. It never blocks.
func (e *Event) TryWait() bool {
	if e.count > 0 {
		e.count--
		return true
	}
	return false
}
