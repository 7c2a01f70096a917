package sim

import "iter"

// Coro is a coroutine running body(arg): the body runs only while its
// owner is inside Resume, until its next Suspend. It is the one way both
// executors suspend a body — this kernel's processes and the goroutine
// NavP backend's agents. Resume and Stop may be called from different
// goroutines over a coroutine's life if those calls are ordered.
type Coro[T any] struct {
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
}

// errStopped is panicked out of Suspend by Stop, unwinding the body.
var errStopped = new(int)

// Start prepares body(arg) to run at the first Resume. Passing arg
// apart from body spares the caller a closure.
func (c *Coro[T]) Start(body func(T), arg T) {
	c.resume, c.stop = iter.Pull(func(yield func(struct{}) bool) {
		c.yield = yield
		body(arg)
	})
}

// Resume runs the body until its next Suspend (true) or its end (false).
// A panic in the body propagates out of Resume.
func (c *Coro[T]) Resume() bool {
	_, ok := c.resume()
	return ok
}

// Suspend returns control to the caller of Resume. Call it only from
// within the body.
func (c *Coro[T]) Suspend() {
	if !c.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Stop ends a body that is suspended or was never resumed; a suspended
// one unwinds through its deferred calls before Stop returns. Stop after
// the body has ended does nothing.
func (c *Coro[T]) Stop() {
	defer func() {
		if r := recover(); r != nil && r != errStopped {
			panic(r)
		}
	}()
	c.stop()
}
