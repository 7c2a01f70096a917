package wire

import (
	"encoding/gob"
	"encoding/hex"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/matrix"
)

// goldenState is a plain struct payload of the kind wire traffic
// carried before the fast data path existed; the golden frame below was
// recorded with the pre-fast-path encoder.
type goldenState struct {
	Step int
	Vals []float64
}

func init() { gob.RegisterName("repro/internal/wire.goldenState", &goldenState{}) }

// goldenFrameHex is a checked-in frame image of the gob-envelope format
// that version 2 replaced: an agent envelope (ID 5<<40|11, hop 2,
// behavior "golden") carrying a goldenState.
const goldenFrameHex = "8a03407f03010108656e76656c6f706501ff8000010401044b696e64010c0001054167656e7401ff8200010341636b01ff84000108436f756e7465727301ff860000003cff81030101086167656e744d736701ff82000104010249440106000103486f7001060001084265686176696f72010c000105537461746501100000002bff830301010661636b4d736701ff84000103010249440106000103486f700106000103447570010200000045ff8503010108636f756e7465727301ff86000104010743726561746564010400010846696e6973686564010400010453656e7401040001085265636569766564010400000069ff8001056167656e740101fa05000000000b01020106676f6c64656e011f726570726f2f696e7465726e616c2f776972652e676f6c64656e5374617465ff870301010b676f6c64656e537461746501ff88000102010453746570010400010456616c7301ff8a00000017ff89020101095b5d666c6f6174363401ff8a000108000017ff880e01080103fef83ffe02c0fe094000000100010000"

func goldenEnvelope() *envelope {
	return &envelope{Kind: msgAgent, Agent: &agentMsg{
		ID: 5<<40 | 11, Hop: 2, Behavior: "golden",
		State: &goldenState{Step: 4, Vals: []float64{1.5, -2.25, 3.125}},
	}}
}

// TestGobFrameRefusedByVersion: a frame of the gob-envelope format is
// refused by its first byte, with an error that says so — not a gob
// error from half-parsing it, and not a panic.
func TestGobFrameRefusedByVersion(t *testing.T) {
	raw, err := hex.DecodeString(goldenFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(raw)
	if err == nil {
		t.Fatalf("a gob-envelope frame decoded as %+v", env)
	}
	if !strings.Contains(err.Error(), "frame version") {
		t.Fatalf("gob-envelope frame refused with %q, want a frame version error", err)
	}
}

// v2Goldens are checked-in images of header-only v2 frames. These bytes
// are deterministic — they hold no gob stream, whose type ids depend on
// what the process encoded earlier — so a layout change fails here.
var v2Goldens = []struct {
	hex string
	env *envelope
}{
	{"09020361636b02090101", &envelope{Kind: msgAck, Ack: ackMsg{ID: 9, Hop: 1, Dup: true}}},
	{"0e020361636b028380808080200702", &envelope{Kind: msgAck, Ack: ackMsg{ID: 1<<40 | 3, Hop: 7, Refused: true}}},
	{"100208636f756e746572730c080818184d", &envelope{Kind: msgCounters, Counters: counters{Created: 4, Finished: 4, Sent: 12, Received: 12}, Job: 77}},
	{"2a02076d656d6265727360020e3132372e302e302e313a393030310e3132372e302e302e313a3930303202",
		&envelope{Kind: msgMembers, Members: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, You: 1}},
	{"1b02076d656d6265727360010e3132372e302e302e313a3930303101", &envelope{Kind: msgMembers, Members: []string{"127.0.0.1:9001"}, You: -1}},
	{"1102026f6b80040a776972653a206e6f7065", &envelope{Kind: msgOK, Err: "wire: nope"}},
	{"1a02066162736f7262841106061212040202010000000706061212", &envelope{Kind: msgAbsorb, Node: 2,
		Counters: counters{Created: 3, Finished: 3, Sent: 9, Received: 9},
		PerJob:   map[uint64]counters{7: {Created: 3, Finished: 3, Sent: 9, Received: 9}, 2: {Created: -1}}}},
}

// TestEncodeFrameMatchesV2Goldens pins the v2 header layout both ways:
// the pooled encoder emits exactly the recorded bytes, and the recorded
// bytes decode to the envelope they were made from.
func TestEncodeFrameMatchesV2Goldens(t *testing.T) {
	for _, g := range v2Goldens {
		want, err := hex.DecodeString(g.hex)
		if err != nil {
			t.Fatal(err)
		}
		f, err := encodeFrame(g.env)
		if err != nil {
			t.Fatal(err)
		}
		if got := f.bytes(); string(got) != string(want) || f.size() != len(want) {
			t.Errorf("%s frame drifted from its golden:\n got %x\nwant %x", g.env.Kind, got, want)
		}
		f.release()
		env, err := decodeFrame(want)
		if err != nil {
			t.Fatalf("%s golden does not decode: %v", g.env.Kind, err)
		}
		if !reflect.DeepEqual(env, g.env) {
			t.Errorf("%s golden decoded as %+v, want %+v", g.env.Kind, env, g.env)
		}
	}
}

// TestBlockFrameRoundTrip sends a Block-carrying state through the full
// frame codec (the slab GobEncoder path) and checks bit-exact element
// recovery, NaN payloads included.
func TestBlockFrameRoundTrip(t *testing.T) {
	blk := matrix.NewBlock(1, 0, 5, 7)
	for i := range blk.Data {
		blk.Data[i] = float64(i) * 1.25
	}
	blk.Data[3] = math.Float64frombits(0x7ff8000000000abc)
	blk.Data[17] = math.Inf(-1)
	st := &benchBlockState{Row: 9, Blk: blk}

	data, err := BenchFrameBytes(st)
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(data)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Agent.State.(*benchBlockState)
	if !ok {
		t.Fatalf("state decoded as %T", env.Agent.State)
	}
	if got.Row != 9 || got.Blk.Rows != 5 || got.Blk.Cols != 7 || got.Blk.BR != 1 {
		t.Fatalf("round trip lost shape: %+v", got)
	}
	for i := range blk.Data {
		if math.Float64bits(got.Blk.Data[i]) != math.Float64bits(blk.Data[i]) {
			t.Fatalf("element %d: %x != %x", i,
				math.Float64bits(got.Blk.Data[i]), math.Float64bits(blk.Data[i]))
		}
	}
}

// TestBlockCheckpointReplay runs a Block-carrying agent through the
// checkpoint store's inject → replay cycle: the snapshot codec and the
// slab codec must compose so a daemon restart reconstructs the block
// exactly.
func TestBlockCheckpointReplay(t *testing.T) {
	blk := matrix.NewBlock(0, 2, 4, 4)
	for i := range blk.Data {
		blk.Data[i] = -float64(i) / 3
	}
	ns := newNodeState(1, newWireMetrics(nil), 1024)
	msg := &agentMsg{ID: 1<<40 | 1, Hop: 0, Behavior: "bench-ring",
		State: &benchBlockState{Row: 2, Blk: blk}}
	if _, err := ns.inject(msg); err != nil {
		t.Fatal(err)
	}
	// Mutate the live value after the checkpoint: the snapshot must be
	// immune (it is a copy, not an alias).
	blk.Data[0] = 999

	msgs, err := ns.replayMessages()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("replayed %d agents, want 1", len(msgs))
	}
	got := msgs[0].State.(*benchBlockState)
	if got.Blk.Data[0] != 0 {
		t.Fatalf("checkpoint aliased live state: Data[0] = %v", got.Blk.Data[0])
	}
	for i := 1; i < len(blk.Data); i++ {
		if got.Blk.Data[i] != -float64(i)/3 {
			t.Fatalf("element %d = %v", i, got.Blk.Data[i])
		}
	}
}

// TestAcceptCheckpointIsolation is TestBlockCheckpointReplay on the
// accept path, where the checkpoint is the frame's own payload rather
// than a fresh encoding: mutating the decoded state after accept — and
// recycling the frame buffer it arrived in — must leave the replayed
// checkpoint as it arrived.
func TestAcceptCheckpointIsolation(t *testing.T) {
	blk := matrix.NewBlock(0, 2, 4, 4)
	for i := range blk.Data {
		blk.Data[i] = -float64(i) / 3
	}
	f, err := encodeFrame(&envelope{Kind: msgAgent, Agent: &agentMsg{ID: 1<<40 | 1, Hop: 1,
		Behavior: "bench-ring", State: &benchBlockState{Row: 2, Blk: blk}}})
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(f.bytes())
	if err != nil {
		t.Fatal(err)
	}
	ns := newNodeState(1, newWireMetrics(nil), 1024)
	if dup, _, err := ns.accept(env.Agent); dup || err != nil {
		t.Fatalf("accept = (dup %v, %v)", dup, err)
	}
	env.Agent.State.(*benchBlockState).Blk.Data[0] = 999
	clear(f.bytes())
	f.release()

	msgs, err := ns.replayMessages()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 {
		t.Fatalf("replayed %d agents, want 1", len(msgs))
	}
	got := msgs[0].State.(*benchBlockState)
	for i := range blk.Data {
		if got.Blk.Data[i] != -float64(i)/3 {
			t.Fatalf("replayed element %d = %v: the checkpoint aliased the live state or the frame buffer", i, got.Blk.Data[i])
		}
	}
}

// TestFrameBufferReuse checks the release/reuse contract: sequential
// encode-release cycles converge to zero buffer allocations.
func TestFrameBufferReuse(t *testing.T) {
	env := goldenEnvelope()
	allocs := testing.AllocsPerRun(200, func() {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		f.release()
	})
	// gob itself allocates per Encode (encoder state, type info); the
	// bound just has to be far below body-size bytes to prove the frame
	// buffer is recycled rather than grown fresh each call.
	if allocs > 40 {
		t.Fatalf("encode+release allocates %v objects per frame", allocs)
	}
}
