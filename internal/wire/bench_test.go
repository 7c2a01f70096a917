package wire

import (
	"strconv"
	"testing"
	"time"

	"repro/internal/matrix"
)

type benchState struct{ Remaining int }

func init() {
	RegisterState(&benchState{})
	Register("bench-ring", func(ctx *Ctx) Verdict {
		st := ctx.State().(*benchState)
		st.Remaining--
		if st.Remaining <= 0 {
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

// BenchmarkWireHop measures one agent migration over loopback TCP,
// including gob encoding of the carried state.
func BenchmarkWireHop(b *testing.B) {
	cl, err := NewCluster(2)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	b.ResetTimer()
	inject(b, cl, 0, "bench-ring", &benchState{Remaining: b.N})
	if err := cl.Wait(5 * time.Minute); err != nil {
		b.Fatal(err)
	}
}

// benchBlockState is the data-path payload shape: a carried matrix
// block plus a little bookkeeping, like the distributed matmul agents.
type benchBlockState struct {
	Row int
	Blk *matrix.Block
}

func init() { RegisterState(&benchBlockState{}) }

func benchBlockStateN(n int) *benchBlockState {
	blk := matrix.NewBlock(0, 0, n, n)
	for i := range blk.Data {
		blk.Data[i] = float64(i%7) + 0.5
	}
	return &benchBlockState{Row: 3, Blk: blk}
}

// codecStates are the payloads the codec benchmarks sweep: control-size
// state and block-carrying states at two sizes.
func codecStates() []struct {
	name  string
	state any
} {
	return []struct {
		name  string
		state any
	}{
		{"small", &benchState{Remaining: 12}},
		{"block=" + strconv.Itoa(64), benchBlockStateN(64)},
		{"block=" + strconv.Itoa(256), benchBlockStateN(256)},
	}
}

// BenchmarkEncodeFrame measures the pooled frame encoder — the per-hop
// serialization cost, and a BENCH_wire.json regression gate.
func BenchmarkEncodeFrame(b *testing.B) {
	for _, c := range codecStates() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			n, err := BenchEncodeFrame(c.state)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BenchEncodeFrame(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDecodeFrame measures the frame decoder over the same payloads.
func BenchmarkDecodeFrame(b *testing.B) {
	for _, c := range codecStates() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			data, err := BenchFrameBytes(c.state)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := BenchDecodeFrame(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCheckpointState measures the hop-boundary checkpoint
// snapshot (encodeState) — paid on every accept, inject, and rehop.
func BenchmarkCheckpointState(b *testing.B) {
	for _, c := range codecStates() {
		c := c
		b.Run(c.name, func(b *testing.B) {
			n, err := BenchEncodeState(c.state)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(n))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BenchEncodeState(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWireConcurrentAgents measures aggregate migration throughput
// with eight agents circulating at once.
func BenchmarkWireConcurrentAgents(b *testing.B) {
	cl, err := NewCluster(4)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	const agents = 8
	per := b.N/agents + 1
	b.ResetTimer()
	for i := 0; i < agents; i++ {
		inject(b, cl, i%4, "bench-ring", &benchState{Remaining: per})
	}
	if err := cl.Wait(5 * time.Minute); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSync measures one sync of an 8-byte change on a node at the
// serving plateau, bare and beside a 4 MiB variable — the cost a SetVar,
// an inject and a hop accept pay before their acknowledgement, and the
// pair BENCH_wire.json gates (flat in resident state size).
func BenchmarkSync(b *testing.B) {
	for _, c := range []struct {
		name    string
		ballast int
	}{{"plateau", 0}, {"ballast=4MiB", 4 << 20}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			step, closeNode, err := BenchSyncNode(b.TempDir(), c.ballast)
			if err != nil {
				b.Fatal(err)
			}
			defer closeNode()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkControlRoundTrip measures one GetVar round trip on a client's
// control connection, when the callers take turns and when sixteen have
// a call in flight at once (per call) — the pair BENCH_wire.json gates:
// overlapping must pay, and a lone call must not pay much for the
// hand-off from the connection's reader.
func BenchmarkControlRoundTrip(b *testing.B) {
	for _, c := range []struct {
		name    string
		callers int
	}{{"serial", 1}, {"burst=16", 16}} {
		c := c
		b.Run(c.name, func(b *testing.B) {
			run, closeCluster, err := BenchControlRoundTrip()
			if err != nil {
				b.Fatal(err)
			}
			defer closeCluster()
			b.ReportAllocs()
			b.ResetTimer()
			if err := run(c.callers, b.N); err != nil {
				b.Fatal(err)
			}
		})
	}
}
