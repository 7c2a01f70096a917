package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// hopperState is the probe agent's state: four ints, and a block when
// the probe prices a payload.
type hopperState struct {
	Left, Visited, Origin, Spare int
	Block                        *matrix.Block
}

// carrierState has the shape of the wirematmul row carrier (a row of
// int64s and a visit ring): the frame the codec probes encode.
type carrierState struct {
	Row     int
	Vals    []int64
	Visited int
	Ring    []int
}

// settlerState is the state of the agent that ages a fresh daemon.
type settlerState struct{ Children int }

// hopperBehavior hops Left more times round the node ring, then stops.
// On one daemon the hop is a self-hop: a checkpointed re-dispatch that
// crosses no socket. settlerBehavior injects Children agents on its own
// node, each of which finishes at once.
const (
	hopperBehavior  = "navpbench.hopper"
	settlerBehavior = "navpbench.settler"
)

func init() {
	wire.RegisterState(&hopperState{})
	wire.RegisterState(&carrierState{})
	wire.RegisterState(&settlerState{})
	wire.Register(settlerBehavior, func(ctx *wire.Ctx) wire.Verdict {
		for i := ctx.State().(*settlerState).Children; i > 0; i-- {
			ctx.Inject(hopperBehavior, &hopperState{})
		}
		return ctx.Done()
	})
	wire.Register(hopperBehavior, func(ctx *wire.Ctx) wire.Verdict {
		st := ctx.State().(*hopperState)
		if st.Left == 0 {
			return ctx.Done()
		}
		st.Left--
		st.Visited++
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

const (
	probeNamespace = uint64(1) << 48 // far above any scheduler namespace
	probeHops      = 256
	probeRounds    = 7
	probeVars      = "navpbench:"
)

// settle brings fresh daemons to the state they serve in. A daemon keeps
// its last 1024 retired (agent, hop) pairs and writes them with every
// persist, so over its first sixty-odd jobs each persist — each ack —
// gets slower: job latency on four daemons climbs from 64 ms to 90 ms
// and then stays. Retiring that many agents on every node first puts
// the timed phases on the plateau, which is what a serving cluster
// older than a few seconds delivers.
func (sv *server) settle() error {
	rc := sv.cl.rc
	const ns = probeNamespace - 1
	for node := 0; node < rc.Size(); node++ {
		if err := rc.InjectJob(node, ns, settlerBehavior, &settlerState{Children: 1100}); err != nil {
			return err
		}
	}
	if err := rc.WaitJob(ns, jobTimeout); err != nil {
		return err
	}
	rc.ReleaseJob(ns)
	return nil
}

// hopperRun injects one hopper, waits for quiescence and releases the
// namespace; it returns the whole time and the part after InjectJob
// returned.
func (sv *server) hopperRun(ns uint64, st *hopperState) (total, afterInject time.Duration, err error) {
	rc := sv.cl.rc
	begin := time.Now()
	if err := rc.InjectJob(0, ns, hopperBehavior, st); err != nil {
		return 0, 0, err
	}
	injected := time.Now()
	if err := rc.WaitJob(ns, jobTimeout); err != nil {
		return 0, 0, err
	}
	end := time.Now()
	rc.ReleaseJob(ns)
	return end.Sub(begin), end.Sub(injected), nil
}

// probes prices single wire operations on the idle cluster, from
// outside: hop round trips, termination-detection lag, the cost of a
// persist against resident state size, and the frame codec.
func (sv *server) probes() error {
	r := sv.b.res
	ns := probeNamespace

	// Hops: (T(256 hops) - T(0 hops)) / 256, rounds interleaved so drift
	// hits both alike. The 0-hop runs are the detection-lag probe too.
	block := matrix.NewBlock(0, 0, 64, 64)
	for i := range block.Data {
		block.Data[i] = float64(i)
	}
	var base, small, big, lag []float64
	for round := 0; round < probeRounds; round++ {
		for kind, st := range []*hopperState{{}, {Left: probeHops}, {Left: probeHops, Block: block}} {
			ns++
			total, after, err := sv.hopperRun(ns, st)
			if err != nil {
				return err
			}
			switch kind {
			case 0:
				base = append(base, ms(total))
				lag = append(lag, ms(after))
			case 1:
				small = append(small, ms(total))
			case 2:
				big = append(big, ms(total))
			}
		}
	}
	r.set("wire.hop_p50_us", (median(small)-median(base))*1000/probeHops, probeRounds, "")
	r.set("wire.hop_block_p50_us", (median(big)-median(base))*1000/probeHops, probeRounds, "")
	r.set("wire.detect_lag_p50_ms", median(lag), len(lag), "")

	// Persist cost against resident state: the same 8-byte SetVar with
	// node 0 otherwise empty, then with 4 MiB beside it.
	rc := sv.cl.rc
	setSmall := func() (float64, error) {
		var us []float64
		for i := 0; i < 60; i++ {
			begin := time.Now()
			if err := rc.SetVar(0, probeVars+"small", int64(i)); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(begin))/float64(time.Microsecond))
		}
		return median(us), nil
	}
	empty, err := setSmall()
	if err != nil {
		return err
	}
	if err := rc.SetVar(0, probeVars+"ballast", make([]byte, 4<<20)); err != nil {
		return err
	}
	loaded, err := setSmall()
	rc.ClearVarsPrefix(probeVars)
	if err != nil {
		return err
	}
	r.set("wire.sync_small_p50_us", empty, 60, "")
	r.set("wire.sync_ballast_p50_us", loaded, 60, "")
	r.set("wire.sync_ballast_ratio", loaded/empty, 60, "")

	return codecProbes(r)
}

// codecProbes times the frame and checkpoint codecs through the
// entry points internal/wire exports for benchmarks.
func codecProbes(r results) error {
	st := &carrierState{Row: 3, Vals: make([]int64, jobN), Visited: 1, Ring: []int{0, 1, 2, 3}}
	for i := range st.Vals {
		st.Vals[i] = int64(i - 8)
	}
	frame, err := wire.BenchFrameBytes(st)
	if err != nil {
		return err
	}
	snap, err := wire.BenchStateBytes(st)
	if err != nil {
		return err
	}
	ops := []struct {
		metric string
		bytes  int
		fn     func() error
	}{
		{"wire.frame_encode_ns", len(frame), func() error { _, err := wire.BenchEncodeFrame(st); return err }},
		{"wire.frame_decode_ns", len(frame), func() error { return wire.BenchDecodeFrame(frame) }},
		{"wire.state_encode_ns", len(snap), func() error { _, err := wire.BenchEncodeState(st); return err }},
		{"wire.state_decode_ns", len(snap), func() error { return wire.BenchDecodeState(snap) }},
	}
	for _, op := range ops {
		ns, allocs, n, err := timeOp(100*time.Millisecond, op.fn)
		if err != nil {
			return fmt.Errorf("%s: %w", op.metric, err)
		}
		r.set(op.metric, ns, n, fmt.Sprintf("%d bytes", op.bytes))
		if op.metric == "wire.frame_decode_ns" {
			r.set("wire.frame_decode_allocs", allocs, n, "")
		}
	}
	return nil
}

// timeOp runs fn on this goroutine for about budget (after a short
// warm-up) and returns the mean nanoseconds and heap allocations per
// call and the number of calls.
func timeOp(budget time.Duration, fn func() error) (nsPerOp, allocsPerOp float64, n int, err error) {
	for i := 0; i < 3; i++ {
		if err := fn(); err != nil {
			return 0, 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	for time.Since(begin) < budget {
		for i := 0; i < 16; i++ {
			if err := fn(); err != nil {
				return 0, 0, 0, err
			}
		}
		n += 16
	}
	elapsed := time.Since(begin)
	runtime.ReadMemStats(&after)
	return float64(elapsed) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), n, nil
}
