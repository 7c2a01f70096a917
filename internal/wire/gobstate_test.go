package wire

import (
	"reflect"
	"testing"
	"time"
)

// richState exercises every shape that agent state carried across the
// wire must survive: nested slices, maps, a pointer, zero values, and a
// self-encoding stdlib type (time.Time implements GobEncode). All fields
// are exported — exactly the property the gobsafe analyzer enforces.
type richState struct {
	Mi, Rows int
	Row      []float64
	Pending  [][]float64
	Tags     map[string]int
	Inner    *richInner
	Stamp    time.Time
	Empty    []float64 // stays nil through the round trip
}

type richInner struct {
	Name  string
	Votes []int
}

// TestCheckpointRoundTripPreservesState is the regression test behind
// the gobsafe rule: everything an agent carries must come back from a
// checkpoint byte-for-value identical, because a restarted daemon
// re-injects agents from these snapshots and any silently dropped field
// is a wrong answer, not an error.
func TestCheckpointRoundTripPreservesState(t *testing.T) {
	RegisterState(&richState{})
	in := &richState{
		Mi:      3,
		Rows:    9,
		Row:     []float64{1.5, -2.25, 0},
		Pending: [][]float64{{1}, {2, 3}},
		Tags:    map[string]int{"hop": 4, "node": 1},
		Inner:   &richInner{Name: "carrier", Votes: []int{1, 0, 1}},
		Stamp:   time.Date(2005, 6, 14, 9, 30, 0, 0, time.UTC),
	}
	b, err := encodeState(in)
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	out, err := decodeState(b)
	if err != nil {
		t.Fatalf("decodeState: %v", err)
	}
	got, ok := out.(*richState)
	if !ok {
		t.Fatalf("decoded %T, want *richState", out)
	}
	if !reflect.DeepEqual(in, got) {
		t.Errorf("round trip lost state:\n in=%+v\nout=%+v", in, got)
	}
}

// TestCheckpointRoundTripNilState covers the stateBox reason for being:
// agents with no carried state checkpoint as nil and come back nil.
func TestCheckpointRoundTripNilState(t *testing.T) {
	b, err := encodeState(nil)
	if err != nil {
		t.Fatalf("encodeState(nil): %v", err)
	}
	out, err := decodeState(b)
	if err != nil {
		t.Fatalf("decodeState: %v", err)
	}
	if out != nil {
		t.Errorf("nil state round-tripped to %#v", out)
	}
}

// leakyState has an unexported field. gob does not report an error for
// it — it is silently dropped. This test documents the failure mode the
// gobsafe analyzer exists to catch at build time.
type leakyState struct {
	Kept    int
	dropped int
}

func TestGobSilentlyDropsUnexportedFields(t *testing.T) {
	RegisterState(&leakyState{})
	in := &leakyState{Kept: 1, dropped: 99}
	b, err := encodeState(in)
	if err != nil {
		t.Fatalf("encodeState: %v", err)
	}
	out, err := decodeState(b)
	if err != nil {
		t.Fatalf("decodeState: %v", err)
	}
	got := out.(*leakyState)
	if got.Kept != 1 {
		t.Errorf("exported field lost: %+v", got)
	}
	if got.dropped != 0 {
		t.Fatalf("expected gob to drop the unexported field, got %+v", got)
	}
}

// TestReplayMessagesSnapshotIsolation checks the other half of the
// checkpoint contract: replayed agents are decoded from snapshot bytes,
// so mutating the live state after the checkpoint must not bleed into
// what a restarted daemon re-injects.
func TestReplayMessagesSnapshotIsolation(t *testing.T) {
	RegisterState(&richState{})
	ns := newNodeState(0, newWireMetrics(nil), 1024)
	live := &richState{Mi: 1, Row: []float64{10, 20}}
	if _, err := ns.inject(&agentMsg{ID: 7, Hop: 0, Behavior: "B", State: live}); err != nil {
		t.Fatalf("inject: %v", err)
	}
	live.Mi = 999    // zombie step mutating the live value
	live.Row[0] = -1 // including through shared slices
	msgs, err := ns.replayMessages()
	if err != nil {
		t.Fatalf("replayMessages: %v", err)
	}
	if len(msgs) != 1 {
		t.Fatalf("got %d replay messages, want 1", len(msgs))
	}
	st := msgs[0].State.(*richState)
	if st.Mi != 1 || st.Row[0] != 10 {
		t.Errorf("replayed state shares memory with live value: %+v", st)
	}
	if msgs[0].Behavior != "B" || msgs[0].Hop != 0 || msgs[0].ID != 7 {
		t.Errorf("replay metadata wrong: %+v", msgs[0])
	}
}
