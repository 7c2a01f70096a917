package navp

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/sim"
	"repro/internal/trace"
)

// simFault injects a fault.Plan into the simulation backend: the same
// seeded chaos scenarios the wire runtime suffers in wall-clock time
// replay here as deterministic virtual-time costs. The simulator models
// the *latency* consequences of faults — resend timeouts for drops,
// dedup dispatch work for duplicates, blackout windows for kills —
// while state-loss correctness (checkpoint replay, dedup) is the wire
// runtime's concern, tested there.
type simFault struct {
	plan     *fault.Plan
	outage   *sim.Outage // per-node daemon blackout windows
	n        int
	seq      []uint64 // per-link frame counters, indexed src*n+dst
	arrivals []int64  // accepted arrivals per node (kill triggers)
}

// SetFaultPlan installs a chaos plan on a simulation-backed system. It
// must be called before Run and panics on a real-backed system (the wire
// runtime configures faults through wire.Options instead).
func (s *System) SetFaultPlan(p *fault.Plan) {
	b, ok := s.backend.(*simBackend)
	if !ok {
		panic("navp: SetFaultPlan on a real-backed system")
	}
	if s.ran {
		panic("navp: SetFaultPlan after Run")
	}
	if !p.Active() {
		b.fault = nil
		return
	}
	n := len(s.nodes)
	for _, k := range p.Kills {
		if k.Node < 0 || k.Node >= n {
			panic(fmt.Sprintf("navp: fault plan kills node %d of %d", k.Node, n))
		}
	}
	b.fault = &simFault{
		plan:     p,
		outage:   sim.NewOutage(n),
		n:        n,
		seq:      make([]uint64, n*n),
		arrivals: make([]int64, n),
	}
}

// hop performs one inter-node migration under fault injection, charging
// every injected mishap in virtual time. It replaces the happy-path body
// of simBackend.hop.
func (f *simFault) hop(b *simBackend, ag *Agent, src, dst int, bytes int64) {
	p := ag.proc
	seq := f.seq[src*f.n+dst]
	f.seq[src*f.n+dst]++
	retry := sim.Time(f.plan.RetryTimeoutOrDefault())

	var dec fault.Decision
	for attempt := uint64(0); ; attempt++ {
		dec = f.plan.Decide(src, dst, seq, attempt)
		if dec.Delay > 0 {
			p.Sleep(sim.Time(dec.Delay))
		}
		if !dec.Drop {
			break
		}
		// The frame is lost; the sender times out and resends.
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceDrop, Agent: ag.Name(), From: src, To: dst,
			Bytes: bytes, Start: p.Now(), End: p.Now()})
		p.Sleep(retry)
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceRetry, Agent: ag.Name(), From: src, To: dst,
			Label: fmt.Sprintf("attempt %d", attempt+2), Start: p.Now(), End: p.Now()})
	}

	readyAt := b.cluster.SendCost(p, src, dst, bytes)
	// A dead destination buffers the frame until its daemon restarts.
	readyAt = f.outage.ClearsAt(dst, readyAt)
	b.cluster.RecvCost(p, dst, readyAt, false)
	// Daemon dispatch, plus dedup work for each duplicate copy delivered.
	p.Sleep(ag.sys.cfg.HopOverhead * sim.Time(1+dec.Dup))

	f.arrivals[dst]++
	if f.plan.KillNow(dst, f.arrivals[dst]) {
		now := p.Now()
		down := sim.Time(f.plan.RestartDelayOrDefault())
		f.outage.Fail(dst, now, down)
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceKill, Agent: ag.Name(), From: dst, To: dst,
			Start: now, End: now})
		ag.sys.record(trace.TraceEvent{Kind: trace.TraceRecover, Agent: ag.Name(), From: dst, To: dst,
			Start: now, End: now + down})
		// The arriving agent was checkpointed before dispatch; it
		// re-enters service from the checkpoint once the daemon is back.
		p.SleepUntil(now + down)
		p.Sleep(ag.sys.cfg.HopOverhead)
	}
}
