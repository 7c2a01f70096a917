package wire

import (
	"strconv"
	"sync"
)

// Exported entry points for the BENCH_wire.json regression harness
// (internal/bench). The frame and checkpoint codecs are unexported by
// design — nothing outside this package should touch wire framing — so
// these thin wrappers expose exactly the operations the harness times:
// frame encode (pooled fast path), frame decode, the checkpoint state
// snapshot both ways, one sync of a plateau-shaped node, and control
// round trips on a client's pipelined connection. They are also usable from external tests that need a wire-identical byte image
// of a frame.

// benchEnvelope wraps state in the canonical agent envelope the codec
// benchmarks measure — the frame shape that dominates hop traffic.
func benchEnvelope(state any) *envelope {
	return &envelope{Kind: msgAgent, Agent: &agentMsg{
		ID: 7<<40 | 42, Hop: 3, Behavior: "bench", State: state,
	}}
}

// BenchEncodeFrame encodes one agent frame carrying state through the
// pooled fast path and releases it, returning the on-wire size.
func BenchEncodeFrame(state any) (int, error) {
	f, err := encodeFrame(benchEnvelope(state))
	if err != nil {
		return 0, err
	}
	n := f.size()
	f.release()
	return n, nil
}

// BenchFrameBytes returns a standalone copy of the encoded frame for
// state — input for BenchDecodeFrame and for golden-frame fixtures.
func BenchFrameBytes(state any) ([]byte, error) {
	f, err := encodeFrame(benchEnvelope(state))
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), f.bytes()...)
	f.release()
	return out, nil
}

// BenchDecodeFrame decodes one complete frame image.
func BenchDecodeFrame(data []byte) error {
	_, err := decodeFrame(data)
	return err
}

// BenchEncodeState snapshots v through the checkpoint codec (the
// per-hop encodeState call), returning the snapshot size.
func BenchEncodeState(v any) (int, error) {
	b, err := encodeState(v)
	if err != nil {
		return 0, err
	}
	return len(b), nil
}

// BenchStateBytes returns the checkpoint snapshot of v.
func BenchStateBytes(v any) ([]byte, error) { return encodeState(v) }

// BenchDecodeState restores a checkpoint snapshot.
func BenchDecodeState(data []byte) error {
	_, err := decodeState(data)
	return err
}

// BenchSyncNode builds, in state directory dir, the node a serving
// daemon plateaus at — 1100 retired agents behind the default dedup
// high-water mark, one job's B strip and sixteen C rows resident —
// plus one variable of ballast bytes when ballast > 0. step is the
// operation BenchmarkSync times: dirty one 8-byte variable and sync it,
// which is what a SetVar costs before its reply. A durability layer
// that writes what changed makes step's cost independent of ballast.
func BenchSyncNode(dir string, ballast int) (step func() error, closeNode func(), err error) {
	ns := newNodeState(0, newWireMetrics(nil), Options{}.withDefaults().DedupRetain)
	p, err := newPersister(dir, ns)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; i < 1100; i++ {
		msg := &agentMsg{ID: ns.newAgentID(), Job: 1, Behavior: "bench"}
		if _, err := ns.inject(msg); err != nil {
			p.close()
			return nil, nil, err
		}
		ns.complete(msg.ID, msg.Hop)
	}
	ns.vars.set("job2:B", make([]float64, 16*16))
	for row := 0; row < 16; row++ {
		ns.vars.set("job2:C:"+strconv.Itoa(row), make([]float64, 16))
	}
	if ballast > 0 {
		ns.vars.set("ballast", make([]byte, ballast))
	}
	if err := ns.sync(); err != nil {
		p.close()
		return nil, nil, err
	}
	var i int64
	step = func() error {
		i++
		ns.vars.set("probe", i)
		return ns.sync()
	}
	return step, p.close, nil
}

// BenchControlRoundTrip starts one in-process host holding an 8-byte
// variable and a client connected to it. run performs n GetVar round
// trips of that variable, shared between callers concurrent callers on
// the client's one control connection to the host, and returns when the
// last has its reply: callers = 1 is what a coordinator that takes turns
// pays per call, callers = 16 what one that overlaps a job's sixteen
// calls pays. BenchmarkControlRoundTrip times both, and BENCH_wire.json
// gates the pair.
func BenchControlRoundTrip() (run func(callers, n int) error, closeCluster func(), err error) {
	cl, err := NewCluster(1)
	if err != nil {
		return nil, nil, err
	}
	if err := cl.SetVar(0, "probe", int64(7)); err != nil {
		cl.Close()
		return nil, nil, err
	}
	run = func(callers, n int) error {
		errs := make([]error, callers)
		var wg sync.WaitGroup
		for c := 0; c < callers; c++ {
			share := n / callers
			if c < n%callers {
				share++
			}
			wg.Add(1)
			go func(c, share int) {
				defer wg.Done()
				for i := 0; i < share && errs[c] == nil; i++ {
					_, errs[c] = cl.GetVar(0, "probe")
				}
			}(c, share)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		return nil
	}
	return run, cl.Close, nil
}
