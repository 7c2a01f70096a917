// Package mp is a message-passing library in the style of MPI, providing
// the subset the paper's Gentleman's Algorithm implementation uses
// (§4): blocking Send, non-blocking Irecv, Wait, plus Barrier. Programs
// are SPMD: World.Run launches one process per rank executing the same
// function.
//
// Send is synchronous (rendezvous protocol, as LAM/MPI uses for the
// paper's megabyte-scale blocks): it blocks until the destination has
// posted a matching receive and the transfer completes. Irecv pre-posts a
// receive and returns immediately; Wait blocks until the message has
// arrived. This reproduces the deadlock structure the paper works around
// with "non-blocking receives ... in conjunction with blocking sends".
//
// Like internal/navp, the package has two backends: a deterministic
// virtual-time backend on the cluster model (NewSimWorld) used for the
// performance tables, and a real-goroutine backend (NewRealWorld) used to
// validate the same programs under genuine concurrency.
package mp

import (
	"fmt"

	"repro/internal/sim"
)

// AnySource matches a message from any rank in Irecv.
const AnySource = -1

// World is a communicator spanning n ranks. Create with NewSimWorld or
// NewRealWorld, then call Run.
type World struct {
	size    int
	backend backend
}

type backend interface {
	run(w *World, program func(*Rank)) error
	send(r *Rank, dst, tag int, value any, bytes int64)
	isend(r *Rank, dst, tag int, value any, bytes int64) *Request
	irecv(r *Rank, src, tag int) *Request
	wait(r *Rank, req *Request) any
	barrier(r *Rank)
	// computeStart and computeEnd bracket the fn of a Compute, which
	// Rank.Compute calls itself so that fn never escapes.
	computeStart(r *Rank)
	computeEnd(r *Rank, flops float64)
	now(r *Rank) sim.Time
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Run executes program on every rank concurrently and returns when all
// ranks finish. On the sim backend a communication deadlock is reported
// as a *sim.DeadlockError.
func (w *World) Run(program func(*Rank)) error {
	return w.backend.run(w, program)
}

// Rank is one SPMD process. All methods must be called from the rank's
// own execution context.
type Rank struct {
	id    int
	world *World

	proc *sim.Proc // sim backend only
}

// ID returns this rank's id, 0..Size-1.
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.world.size }

// Send transmits value with the given payload size to rank dst,
// blocking until dst posts a matching receive and the transfer completes
// (rendezvous semantics). Sending to oneself without a concurrently
// posted receive deadlocks, as in MPI.
func (r *Rank) Send(dst, tag int, value any, bytes int64) {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mp: rank %d sends to invalid rank %d", r.id, dst))
	}
	r.world.backend.send(r, dst, tag, value, bytes)
}

// Isend starts a non-blocking send to rank dst and returns a request.
// The transfer proceeds concurrently with the caller (as with a DMA-
// driven MPI_Isend); Wait blocks until it has fully completed, i.e.
// until the destination matched the message and the payload crossed the
// wire.
func (r *Rank) Isend(dst, tag int, value any, bytes int64) *Request {
	if dst < 0 || dst >= r.world.size {
		panic(fmt.Sprintf("mp: rank %d isends to invalid rank %d", r.id, dst))
	}
	return r.world.backend.isend(r, dst, tag, value, bytes)
}

// Irecv posts a non-blocking receive for a message from src (or
// AnySource) with the given tag and returns a request to pass to Wait.
func (r *Rank) Irecv(src, tag int) *Request {
	if src != AnySource && (src < 0 || src >= r.world.size) {
		panic(fmt.Sprintf("mp: rank %d receives from invalid rank %d", r.id, src))
	}
	return r.world.backend.irecv(r, src, tag)
}

// Wait blocks until the request's message has fully arrived and returns
// its value. Each request may be waited on once.
func (r *Rank) Wait(req *Request) any {
	if req.waited {
		panic(fmt.Sprintf("mp: rank %d waits twice on request (src=%d tag=%d)", r.id, req.src, req.tag))
	}
	req.waited = true
	return r.world.backend.wait(r, req)
}

// Recv is the blocking convenience: Irecv immediately followed by Wait.
func (r *Rank) Recv(src, tag int) any {
	return r.Wait(r.Irecv(src, tag))
}

// Barrier blocks until every rank has entered it.
func (r *Rank) Barrier() {
	r.world.backend.barrier(r)
}

// Compute performs fn, charging flops of CPU work on this rank's PE (one
// CPU per PE). fn may be nil when only the cost matters. fn runs before
// Compute returns and is not retained, so a closure passed here stays on
// the caller's stack.
func (r *Rank) Compute(flops float64, fn func()) {
	b := r.world.backend
	b.computeStart(r)
	if fn != nil {
		fn()
	}
	b.computeEnd(r, flops)
}

// Now returns the current time: virtual seconds on the sim backend,
// seconds since Run on the real backend.
func (r *Rank) Now() sim.Time { return r.world.backend.now(r) }

// Request is a pending non-blocking operation (an Irecv or an Isend).
type Request struct {
	src, tag int // as posted; src may be AnySource
	isSend   bool
	value    any
	bytes    int64
	arrived  bool
	readyAt  sim.Time
	waited   bool

	ev   *sim.Event    // sim backend
	done chan struct{} // real backend
}

// Cart2D maps ranks onto a PR×PC process grid in row-major order and
// provides the neighbor arithmetic of Gentleman's Algorithm (toroidal
// shifts west/north).
type Cart2D struct {
	PR, PC int
}

// NewCart2D validates and returns a PR×PC grid.
func NewCart2D(pr, pc int) Cart2D {
	if pr <= 0 || pc <= 0 {
		panic(fmt.Sprintf("mp: invalid grid %d×%d", pr, pc))
	}
	return Cart2D{PR: pr, PC: pc}
}

// Size returns PR·PC.
func (c Cart2D) Size() int { return c.PR * c.PC }

// Coords returns the (row, col) of rank id.
func (c Cart2D) Coords(id int) (row, col int) { return id / c.PC, id % c.PC }

// RankOf returns the rank at (row, col), wrapping toroidally.
func (c Cart2D) RankOf(row, col int) int {
	row = ((row % c.PR) + c.PR) % c.PR
	col = ((col % c.PC) + c.PC) % c.PC
	return row*c.PC + col
}

// West returns the rank one step west (column−1, wrapping).
func (c Cart2D) West(id int) int { r, cl := c.Coords(id); return c.RankOf(r, cl-1) }

// East returns the rank one step east (column+1, wrapping).
func (c Cart2D) East(id int) int { r, cl := c.Coords(id); return c.RankOf(r, cl+1) }

// North returns the rank one step north (row−1, wrapping).
func (c Cart2D) North(id int) int { r, cl := c.Coords(id); return c.RankOf(r-1, cl) }

// South returns the rank one step south (row+1, wrapping).
func (c Cart2D) South(id int) int { r, cl := c.Coords(id); return c.RankOf(r+1, cl) }
