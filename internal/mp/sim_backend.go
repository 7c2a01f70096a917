package mp

import (
	"fmt"

	"repro/internal/machine"
	"repro/internal/sim"
)

// simBackend executes ranks as kernel processes and charges transfer and
// compute costs against the cluster model. Message matching follows MPI:
// per-receiver queues of posted receives and of senders parked awaiting a
// match (the rendezvous "unexpected" queue), matched in FIFO order.
type simBackend struct {
	kernel  *sim.Kernel
	cluster *machine.Cluster
	boxes   []mailbox // one per rank
}

type mailbox struct {
	posted     []*Request
	unexpected []*parkedSend
}

type parkedSend struct {
	src, tag int
	value    any
	bytes    int64
	proc     *sim.Proc
	req      *Request // filled in when matched
}

// NewSimWorld builds an n-rank world on a fresh simulation kernel with
// the given hardware model.
func NewSimWorld(hw machine.Config, n int) *World {
	k := sim.New()
	b := &simBackend{kernel: k, cluster: machine.NewCluster(k, hw, n), boxes: make([]mailbox, n)}
	return &World{size: n, backend: b}
}

// Cluster returns the machine model beneath a simulation-backed world, or
// nil for a real-backed world.
func (w *World) Cluster() *machine.Cluster {
	if b, ok := w.backend.(*simBackend); ok {
		return b.cluster
	}
	return nil
}

// VirtualTime returns the kernel time of a simulation-backed world (after
// Run, the program's finish time). It panics on a real-backed world.
func (w *World) VirtualTime() sim.Time {
	b, ok := w.backend.(*simBackend)
	if !ok {
		panic("mp: VirtualTime on a real-backed world")
	}
	return b.kernel.Now()
}

func (b *simBackend) run(w *World, program func(*Rank)) error {
	for id := 0; id < w.size; id++ {
		r := &Rank{id: id, world: w}
		b.kernel.Spawn(fmt.Sprintf("rank%d", id), func(p *sim.Proc) {
			r.proc = p
			program(r)
		})
	}
	return b.kernel.Run()
}

func matches(reqSrc, reqTag, src, tag int) bool {
	return (reqSrc == AnySource || reqSrc == src) && reqTag == tag
}

// transfer charges the wire costs of a matched message and completes req.
// It runs in the sender's process.
func (b *simBackend) transfer(sender *sim.Proc, src, dst int, value any, bytes int64, req *Request) {
	readyAt := b.cluster.SendCost(sender, src, dst, bytes)
	req.value = value
	req.bytes = bytes
	req.readyAt = readyAt
	req.arrived = true
	req.ev.Signal()
}

func (b *simBackend) send(r *Rank, dst, tag int, value any, bytes int64) {
	box := &b.boxes[dst]
	for i, req := range box.posted {
		if matches(req.src, req.tag, r.id, tag) {
			box.posted = append(box.posted[:i], box.posted[i+1:]...)
			b.transfer(r.proc, r.id, dst, value, bytes, req)
			return
		}
	}
	// No matching receive yet: rendezvous. Park until Irecv matches us,
	// then charge the transfer from this (the sender's) process.
	ps := &parkedSend{src: r.id, tag: tag, value: value, bytes: bytes, proc: r.proc}
	box.unexpected = append(box.unexpected, ps)
	r.proc.Park(fmt.Sprintf("mp send to %d tag %d", dst, tag))
	b.transfer(r.proc, r.id, dst, value, bytes, ps.req)
}

func (b *simBackend) isend(r *Rank, dst, tag int, value any, bytes int64) *Request {
	req := &Request{src: r.id, tag: tag, isSend: true,
		ev: sim.NewEvent(fmt.Sprintf("isend@%d tag %d", r.id, tag))}
	// A helper process performs the (possibly rendezvous-blocked) send on
	// the caller's behalf, charging the same NIC costs; Wait joins it.
	proxy := &Rank{id: r.id, world: r.world}
	r.proc.Spawn(fmt.Sprintf("rank%d.isend", r.id), func(p *sim.Proc) {
		proxy.proc = p
		b.send(proxy, dst, tag, value, bytes)
		req.arrived = true
		req.ev.Signal()
	})
	return req
}

func (b *simBackend) irecv(r *Rank, src, tag int) *Request {
	req := &Request{src: src, tag: tag, ev: sim.NewEvent(fmt.Sprintf("recv@%d tag %d", r.id, tag))}
	box := &b.boxes[r.id]
	for i, ps := range box.unexpected {
		if matches(src, tag, ps.src, ps.tag) {
			box.unexpected = append(box.unexpected[:i], box.unexpected[i+1:]...)
			ps.req = req
			r.proc.Kernel().Ready(ps.proc)
			return req
		}
	}
	box.posted = append(box.posted, req)
	return req
}

func (b *simBackend) wait(r *Rank, req *Request) any {
	req.ev.Wait(r.proc)
	if req.isSend {
		return nil
	}
	b.cluster.RecvCost(r.proc, r.id, req.readyAt, false)
	return req.value
}

func (b *simBackend) barrier(r *Rank) {
	// Dissemination barrier over zero-byte messages: log2(n) rounds, each
	// rank sends to (id+2^k) mod n and receives from (id−2^k) mod n.
	n := r.world.size
	for k := 1; k < n; k <<= 1 {
		to := (r.id + k) % n
		from := (r.id - k + n) % n
		req := r.Irecv(from, barrierTag-k)
		r.Send(to, barrierTag-k, nil, 0)
		r.Wait(req)
	}
}

// barrierTag is a tag space reserved for Barrier's internal messages;
// user tags must be non-negative.
const barrierTag = -1000

func (b *simBackend) computeStart(r *Rank) { b.cluster.PEs[r.id].StartCompute(r.proc) }

func (b *simBackend) computeEnd(r *Rank, flops float64) {
	b.cluster.PEs[r.id].EndCompute(r.proc, flops)
}

func (b *simBackend) now(r *Rank) sim.Time { return r.proc.Now() }
