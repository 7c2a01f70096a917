package wire

import "strconv"

// Exported entry points for the BENCH_wire.json regression harness
// (internal/bench). The frame and checkpoint codecs are unexported by
// design — nothing outside this package should touch wire framing — so
// these thin wrappers expose exactly the operations the harness times:
// frame encode (pooled fast path), frame decode, the checkpoint state
// snapshot both ways, and one sync of a plateau-shaped node. They are
// also usable from external tests that need a wire-identical byte image
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
