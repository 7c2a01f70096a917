// This file is the real-concurrency backend: wall-clock time and bare
// goroutines are its whole point, not a reproducibility bug.
//
//navplint:exempt simsafe
package mp

import (
	"sync"
	"time"

	"repro/internal/sim"
)

// realBackend executes each rank as a goroutine with the same matching
// semantics as the sim backend: rendezvous sends, pre-posted receives.
// It makes no timing promises and exists to validate program correctness
// under genuine concurrency.
type realBackend struct {
	mu      sync.Mutex
	boxes   []realMailbox
	started time.Time

	bar struct {
		count, gen int
		cond       *sync.Cond
	}
}

type realMailbox struct {
	posted     []*Request
	unexpected []*realParkedSend
}

type realParkedSend struct {
	src, tag int
	value    any
	bytes    int64
	matched  chan *Request
}

// NewRealWorld builds an n-rank world executed by real goroutines.
func NewRealWorld(n int) *World {
	b := &realBackend{boxes: make([]realMailbox, n)}
	b.bar.cond = sync.NewCond(&b.mu)
	return &World{size: n, backend: b}
}

func (b *realBackend) run(w *World, program func(*Rank)) error {
	b.started = time.Now()
	var wg sync.WaitGroup
	for id := 0; id < w.size; id++ {
		r := &Rank{id: id, world: w}
		wg.Add(1)
		go func() {
			defer wg.Done()
			program(r)
		}()
	}
	wg.Wait()
	return nil
}

func (b *realBackend) send(r *Rank, dst, tag int, value any, bytes int64) {
	b.mu.Lock()
	box := &b.boxes[dst]
	for i, req := range box.posted {
		if matches(req.src, req.tag, r.id, tag) {
			box.posted = append(box.posted[:i], box.posted[i+1:]...)
			req.value = value
			req.bytes = bytes
			req.arrived = true
			done := req.done
			b.mu.Unlock()
			close(done)
			return
		}
	}
	ps := &realParkedSend{src: r.id, tag: tag, value: value, bytes: bytes, matched: make(chan *Request)}
	box.unexpected = append(box.unexpected, ps)
	b.mu.Unlock()
	req := <-ps.matched // rendezvous: block until a receive is posted
	b.mu.Lock()
	req.value = value
	req.bytes = bytes
	req.arrived = true
	done := req.done
	b.mu.Unlock()
	close(done)
}

func (b *realBackend) isend(r *Rank, dst, tag int, value any, bytes int64) *Request {
	req := &Request{src: r.id, tag: tag, isSend: true, done: make(chan struct{})}
	go func() {
		b.send(r, dst, tag, value, bytes)
		close(req.done)
	}()
	return req
}

func (b *realBackend) irecv(r *Rank, src, tag int) *Request {
	req := &Request{src: src, tag: tag, done: make(chan struct{})}
	b.mu.Lock()
	box := &b.boxes[r.id]
	for i, ps := range box.unexpected {
		if matches(src, tag, ps.src, ps.tag) {
			box.unexpected = append(box.unexpected[:i], box.unexpected[i+1:]...)
			b.mu.Unlock()
			ps.matched <- req
			return req
		}
	}
	box.posted = append(box.posted, req)
	b.mu.Unlock()
	return req
}

func (b *realBackend) wait(r *Rank, req *Request) any {
	<-req.done
	if req.isSend {
		return nil
	}
	b.mu.Lock()
	v := req.value
	b.mu.Unlock()
	return v
}

func (b *realBackend) barrier(r *Rank) {
	b.mu.Lock()
	defer b.mu.Unlock()
	gen := b.bar.gen
	b.bar.count++
	if b.bar.count == r.world.size {
		b.bar.count = 0
		b.bar.gen++
		b.bar.cond.Broadcast()
		return
	}
	for gen == b.bar.gen {
		b.bar.cond.Wait()
	}
}

func (b *realBackend) compute(r *Rank, flops float64, fn func()) {
	if fn != nil {
		fn()
	}
}

func (b *realBackend) now(r *Rank) sim.Time { return time.Since(b.started).Seconds() }
