package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"math"
	"reflect"
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

// goldenFrameHex is a checked-in frame image recorded before the pooled
// zero-copy encoder landed: an agent envelope (ID 5<<40|11, hop 2,
// behavior "golden") carrying a goldenState. Decoding it proves the
// fast path changed the encoder's mechanics, not the wire format — a
// checkpoint replay of pre-fast-path frames still works.
const goldenFrameHex = "8a03407f03010108656e76656c6f706501ff8000010401044b696e64010c0001054167656e7401ff8200010341636b01ff84000108436f756e7465727301ff860000003cff81030101086167656e744d736701ff82000104010249440106000103486f7001060001084265686176696f72010c000105537461746501100000002bff830301010661636b4d736701ff84000103010249440106000103486f700106000103447570010200000045ff8503010108636f756e7465727301ff86000104010743726561746564010400010846696e6973686564010400010453656e7401040001085265636569766564010400000069ff8001056167656e740101fa05000000000b01020106676f6c64656e011f726570726f2f696e7465726e616c2f776972652e676f6c64656e5374617465ff870301010b676f6c64656e537461746501ff88000102010453746570010400010456616c7301ff8a00000017ff89020101095b5d666c6f6174363401ff8a000108000017ff880e01080103fef83ffe02c0fe094000000100010000"

func goldenEnvelope() *envelope {
	return &envelope{Kind: msgAgent, Agent: &agentMsg{
		ID: 5<<40 | 11, Hop: 2, Behavior: "golden",
		State: &goldenState{Step: 4, Vals: []float64{1.5, -2.25, 3.125}},
	}}
}

func TestGoldenFrameDecodes(t *testing.T) {
	raw, err := hex.DecodeString(goldenFrameHex)
	if err != nil {
		t.Fatal(err)
	}
	env, err := decodeFrame(raw)
	if err != nil {
		t.Fatalf("pre-fast-path frame no longer decodes: %v", err)
	}
	want := goldenEnvelope()
	if env.Agent.ID != want.Agent.ID || env.Agent.Hop != want.Agent.Hop ||
		env.Agent.Behavior != want.Agent.Behavior {
		t.Fatalf("decoded header %+v", env.Agent)
	}
	if !reflect.DeepEqual(env.Agent.State, want.Agent.State) {
		t.Fatalf("decoded state %+v, want %+v", env.Agent.State, want.Agent.State)
	}
}

// TestEncodeFrameMatchesLegacyBytes proves the pooled zero-copy encoder
// is byte-identical to the straightforward construction it replaced
// (gob into a fresh buffer, then prefix + append): same gob stream,
// same uvarint header, no layout drift for recorded traffic.
func TestEncodeFrameMatchesLegacyBytes(t *testing.T) {
	env := goldenEnvelope()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(env); err != nil {
		t.Fatal(err)
	}
	legacy := binary.AppendUvarint(nil, uint64(body.Len()))
	legacy = append(legacy, body.Bytes()...)

	f, err := encodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if !bytes.Equal(f.bytes(), legacy) {
		t.Fatalf("fast path drifted from legacy encoding:\n got %x\nwant %x", f.bytes(), legacy)
	}
	if f.size() != len(legacy) {
		t.Fatalf("size() = %d, want %d", f.size(), len(legacy))
	}
	// (No assertion against goldenFrameHex here: gob allocates wire type
	// IDs process-globally, so the exact bytes depend on what the process
	// encoded earlier. Decoding is ID-independent — TestGoldenFrameDecodes
	// covers the recorded frame.)
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
