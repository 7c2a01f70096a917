package sim

// Chan is a virtual-time channel carrying values of type T between
// processes. Semantics mirror Go channels: a zero-capacity channel is a
// rendezvous; a buffered channel decouples sender and receiver up to its
// capacity. Blocked senders and receivers are released in FIFO order.
//
// Chan carries no time model of its own; transports that model latency or
// bandwidth charge those costs around Send/Recv (see internal/machine).
type Chan[T any] struct {
	name      string
	capacity  int
	buf       []T
	senders   []chanSender[T]
	receivers []chanReceiver[T]
	closed    bool
}

type chanSender[T any] struct {
	p *Proc
	v T
}

type chanReceiver[T any] struct {
	p    *Proc
	slot *T
	ok   *bool
}

// NewChan returns a channel with the given buffer capacity (0 for a
// rendezvous channel).
func NewChan[T any](name string, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{name: name, capacity: capacity}
}

// Name returns the channel's diagnostic name.
func (c *Chan[T]) Name() string { return c.name }

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Send delivers v, blocking the calling process until a receiver or buffer
// slot is available. Send on a closed channel panics.
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed channel " + c.name)
	}
	if len(c.receivers) > 0 {
		r := c.receivers[0]
		c.receivers = c.receivers[1:]
		*r.slot = v
		*r.ok = true
		r.p.k.Ready(r.p)
		return
	}
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, v)
		return
	}
	c.senders = append(c.senders, chanSender[T]{p: p, v: v})
	p.Park("send " + c.name)
}

// Recv receives a value, blocking until one is available. ok is false only
// when the channel is closed and drained, as with Go channels.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if v, ok = c.TryRecv(); ok || c.closed {
		return v, ok
	}
	c.receivers = append(c.receivers, chanReceiver[T]{p: p, slot: &v, ok: &ok})
	p.Park("recv " + c.name)
	return v, ok
}

// TryRecv receives a value without blocking, reporting whether one was
// available.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// A parked sender can now occupy the freed buffer slot.
		if len(c.senders) > 0 {
			s := c.senders[0]
			c.senders = c.senders[1:]
			c.buf = append(c.buf, s.v)
			s.p.k.Ready(s.p)
		}
		return v, true
	}
	if len(c.senders) > 0 {
		s := c.senders[0]
		c.senders = c.senders[1:]
		s.p.k.Ready(s.p)
		return s.v, true
	}
	return v, false
}

// Close marks the channel closed. Pending and future receivers drain the
// buffer and then observe ok == false. Closing with parked senders, or
// closing twice, panics.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed channel " + c.name)
	}
	if len(c.senders) > 0 {
		panic("sim: close of channel " + c.name + " with blocked senders")
	}
	c.closed = true
	for _, r := range c.receivers {
		*r.ok = false
		r.p.k.Ready(r.p)
	}
	c.receivers = nil
}
