package wire

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/matrix"
)

// rowCarrierShape and bPartShape have the shapes of the scheduler's
// registered states (sched.rowCarrierState, sched.bPart), which this
// package cannot import; the codec sees nothing but the shape.
type rowCarrierShape struct {
	Row     int
	Vals    []int64
	Visited int
	Ring    []int
	C       []int64
}

type bPartShape struct {
	Off  int
	Cols [][]int64
}

// nestedIface has an interface below stateBox.V, so its payloads must
// take the plain form: a primer cannot know the field's concrete types.
type nestedIface struct {
	Name string
	Any  any
}

func init() {
	RegisterState(&rowCarrierShape{})
	RegisterState(&bPartShape{})
	RegisterState(&nestedIface{})
}

// payloadCases is every registered state shape in the repository, the
// builtins node variables carry, nil, and the nested-interface case.
func payloadCases() []struct {
	name   string
	v      any
	primed bool
} {
	blk := matrix.NewBlock(1, 0, 3, 5)
	for i := range blk.Data {
		blk.Data[i] = float64(i) * 0.75
	}
	blk.Data[2] = math.Float64frombits(0x7ff8000000000abc) // a NaN with a payload
	blk.Data[7] = math.Inf(1)
	blk.Data[11] = math.Inf(-1)
	return []struct {
		name   string
		v      any
		primed bool
	}{
		{"rowCarrierState", &rowCarrierShape{Row: 3, Vals: []int64{-8, 0, 7}, Visited: 1, Ring: []int{0, 1, 2, 3}, C: []int64{0, 42, 0}}, true},
		{"bPart", &bPartShape{Off: 4, Cols: [][]int64{{1, 2}, {3, -4}}}, true},
		{"benchState", &benchState{Remaining: 12}, true},
		{"benchBlockState", &benchBlockState{Row: 9, Blk: blk}, true},
		{"goldenState", &goldenState{Step: 4, Vals: []float64{1.5, -2.25}}, true},
		{"int64", int64(-42), true},
		{"[]int64", []int64{1, -2, 3}, true},
		{"nil", nil, false},
		{"nested interface", &nestedIface{Name: "x", Any: int64(3)}, false},
	}
}

// samePayloadValue is reflect.DeepEqual, but compares float64s by bits
// (NaN payloads included).
func samePayloadValue(a, b any) bool {
	ab, aok := a.(*benchBlockState)
	bb, bok := b.(*benchBlockState)
	if !aok || !bok {
		return reflect.DeepEqual(a, b)
	}
	if ab.Row != bb.Row || len(ab.Blk.Data) != len(bb.Blk.Data) ||
		ab.Blk.Rows != bb.Blk.Rows || ab.Blk.Cols != bb.Blk.Cols || ab.Blk.BR != bb.Blk.BR || ab.Blk.BC != bb.Blk.BC {
		return false
	}
	for i := range ab.Blk.Data {
		if math.Float64bits(ab.Blk.Data[i]) != math.Float64bits(bb.Blk.Data[i]) {
			return false
		}
	}
	return true
}

// splitPrimed returns a primed payload's P and V.
func splitPrimed(t testing.TB, b []byte) (prefix, value []byte) {
	t.Helper()
	if len(b) == 0 || b[0] != primedTag {
		t.Fatalf("not a primed payload: % x", b[:min(len(b), 8)])
	}
	r := recReader{b: b[1:]}
	prefix = r.bytes()
	if r.err != nil {
		t.Fatal(r.err)
	}
	return prefix, r.b
}

// TestPayloadRoundTrip: every shape round-trips, twice (the second
// decode uses the pooled decoder the first one primed), in the form its
// type graph calls for; and every primed payload is self-contained — a
// brand-new gob.Decoder reading P then V recovers the value.
func TestPayloadRoundTrip(t *testing.T) {
	for _, c := range payloadCases() {
		b, err := encodeState(c.v)
		if err != nil {
			t.Fatalf("%s: encode: %v", c.name, err)
		}
		if primed := b[0] == primedTag; primed != c.primed {
			t.Fatalf("%s: primed form = %v, want %v", c.name, primed, c.primed)
		}
		for round := 0; round < 2; round++ {
			got, err := decodeState(b)
			if err != nil {
				t.Fatalf("%s: decode %d: %v", c.name, round, err)
			}
			if !samePayloadValue(got, c.v) {
				t.Fatalf("%s: decode %d = %#v, want %#v", c.name, round, got, c.v)
			}
		}
		if !c.primed {
			continue
		}
		prefix, value := splitPrimed(t, b)
		dec := gob.NewDecoder(bytes.NewReader(append(append([]byte(nil), prefix...), value...)))
		var throwaway, box stateBox
		if err := dec.Decode(&throwaway); err != nil {
			t.Fatalf("%s: a fresh decoder cannot read P: %v", c.name, err)
		}
		if err := dec.Decode(&box); err != nil {
			t.Fatalf("%s: a fresh decoder cannot read V after P: %v", c.name, err)
		}
		if !samePayloadValue(box.V, c.v) {
			t.Fatalf("%s: fresh decoder read %#v, want %#v", c.name, box.V, c.v)
		}
	}
}

// TestPayloadEncodedOnceIsStable: two encodings of one value are the
// same bytes, whichever pooled encoder writes them — so a checkpoint
// and the frame that carried it agree, and retransmits are identical.
func TestPayloadEncodedOnceIsStable(t *testing.T) {
	for _, c := range payloadCases() {
		a, err := encodeState(c.v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeState(c.v)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("%s: two encodings differ:\n% x\n% x", c.name, a, b)
		}
	}
}

// legacyPayload is what every revision before the primed form wrote
// into checkpoints and var/ records.
func legacyPayload(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&stateBox{V: v}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPayloadLegacyBytes: plain one-value gob streams still decode —
// directly, and as the var/ and ckpt/ values of a state directory
// replayed from disk.
func TestPayloadLegacyBytes(t *testing.T) {
	for _, c := range payloadCases() {
		got, err := decodeState(legacyPayload(t, c.v))
		if err != nil {
			t.Fatalf("%s: legacy payload: %v", c.name, err)
		}
		if !samePayloadValue(got, c.v) {
			t.Fatalf("%s: legacy payload decoded as %#v", c.name, got)
		}
	}

	const node, agent = 3, 3<<40 | 5
	carried := &rowCarrierShape{Row: 1, Vals: []int64{5, 6}, Visited: 2, Ring: []int{1, 2}}
	buf, start := beginRecord(appendFileHeader(nil, 0, node), 0)
	buf = appendString(append(buf, domVar<<1), "job1:B")
	buf = appendBytes(buf, legacyPayload(t, []float64{0.5, -1}))
	buf = appendOp(buf, domCkpt, false, agent)
	buf = appendString(buf, "carrier")
	buf = append(buf, 2, 1) // hop, job
	buf = appendBytes(buf, legacyPayload(t, carried))
	if err := endRecord(buf, start); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, logFilePrefix+"0"), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	ns := loadState(t, dir, node, 4)
	if got := ns.vars.get("job1:B"); !reflect.DeepEqual(got, []float64{0.5, -1}) {
		t.Fatalf("legacy var/ record replayed as %#v", got)
	}
	msgs, err := ns.replayMessages()
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 1 || msgs[0].ID != agent || msgs[0].Hop != 2 || !reflect.DeepEqual(msgs[0].State, carried) {
		t.Fatalf("legacy ckpt/ record replayed as %+v", msgs)
	}
}

// TestPayloadConcurrent drives the pooled encoders and decoders from
// several goroutines at once, every shape interleaved (run under -race).
func TestPayloadConcurrent(t *testing.T) {
	cases := payloadCases()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c := cases[(g+i)%len(cases)]
				b, err := encodeState(c.v)
				if err != nil {
					t.Errorf("%s: %v", c.name, err)
					return
				}
				got, err := decodeState(b)
				if err != nil || !samePayloadValue(got, c.v) {
					t.Errorf("%s: decoded (%#v, %v)", c.name, got, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// withEmptyPrefixTable runs the test against an empty decoder table and
// puts the process's table back afterwards.
func withEmptyPrefixTable(t *testing.T) {
	prefixes.mu.Lock()
	saved := prefixes.m
	prefixes.m = nil
	prefixes.mu.Unlock()
	t.Cleanup(func() {
		prefixes.mu.Lock()
		prefixes.m = saved
		prefixes.mu.Unlock()
	})
}

func prefixTableSize() int {
	prefixes.mu.RLock()
	defer prefixes.mu.RUnlock()
	return len(prefixes.m)
}

// TestPayloadPrefixTableBounded: payloads naming more distinct P than
// the table holds all decode, and the table stops at its bound.
func TestPayloadPrefixTableBounded(t *testing.T) {
	withEmptyPrefixTable(t)
	want := &benchState{Remaining: 42}
	b, err := encodeState(want)
	if err != nil {
		t.Fatal(err)
	}
	_, value := splitPrimed(t, b)
	for i := 1; i <= maxPayloadPrefixes+8; i++ {
		// A fresh encoder's stream for a non-zero throw-away value is a
		// valid P of its own, with the same type ids as every other.
		var p bytes.Buffer
		if err := gob.NewEncoder(&p).Encode(&stateBox{V: &benchState{Remaining: i}}); err != nil {
			t.Fatal(err)
		}
		payload := appendBytes([]byte{primedTag}, p.Bytes())
		got, err := decodeState(append(payload, value...))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("payload with prefix %d decoded as (%#v, %v)", i, got, err)
		}
	}
	if n := prefixTableSize(); n != maxPayloadPrefixes {
		t.Fatalf("decoder table holds %d prefixes, bound %d", n, maxPayloadPrefixes)
	}
}

// TestPayloadRejectsMalformedPrimed: structural damage to a primed
// payload is an error, and the decoder it reached is not reused.
func TestPayloadRejectsMalformedPrimed(t *testing.T) {
	good, err := encodeState(&benchState{Remaining: 7})
	if err != nil {
		t.Fatal(err)
	}
	prefix, value := splitPrimed(t, good)
	for name, b := range map[string][]byte{
		"empty":             {},
		"tag only":          {primedTag},
		"prefix overruns":   append([]byte{primedTag, 0x7f}, prefix...),
		"no value":          appendBytes([]byte{primedTag}, prefix),
		"value truncated":   good[:len(good)-1],
		"two values":        append(append([]byte(nil), good...), value...),
		"prefix is a value": append(appendBytes([]byte{primedTag}, value), value...),
	} {
		if v, err := decodeState(b); err == nil {
			t.Errorf("%s: decoded as %#v", name, v)
		}
	}
	if v, err := decodeState(good); err != nil || !reflect.DeepEqual(v, &benchState{Remaining: 7}) {
		t.Fatalf("the good payload after the bad ones: (%#v, %v)", v, err)
	}
}

// FuzzDecodePayload: no input panics the payload decoder, none leaves a
// pooled decoder that misreads a later honest payload, and the decoder
// table never outgrows its bound.
func FuzzDecodePayload(f *testing.F) {
	good, err := encodeState(&benchState{Remaining: 7})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range payloadCases() {
		b, err := encodeState(c.v)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(legacyPayload(f, c.v))
	}
	prefix, value := splitPrimed(f, good)
	f.Add(append(appendBytes([]byte{primedTag}, prefix), value[:len(value)/2]...))
	f.Add(append(append([]byte(nil), good...), value...))
	f.Add([]byte{primedTag, 0x80})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		isValueMessage(data) // the hand-written parser, outside decodeState's recover
		decodeState(data)
		got, err := decodeState(good)
		if err != nil || !reflect.DeepEqual(got, &benchState{Remaining: 7}) {
			t.Fatalf("after % x the known-good payload decodes as (%#v, %v)", data, got, err)
		}
		if n := prefixTableSize(); n > maxPayloadPrefixes {
			t.Fatalf("decoder table holds %d prefixes, bound %d", n, maxPayloadPrefixes)
		}
	})
}
