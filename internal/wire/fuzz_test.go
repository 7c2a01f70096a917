package wire

import (
	"bytes"
	"encoding/binary"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds builds representative well-formed frames plus classic
// malformations; they seed both the fuzzer and the regression tests
// below, alongside the checked-in corpus under testdata/fuzz.
func fuzzSeeds(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	for _, env := range []*envelope{
		{Kind: msgAgent, Agent: &agentMsg{ID: 1<<40 | 7, Hop: 3, Behavior: "ring", State: nil}},
		{Kind: msgAck, Ack: ackMsg{ID: 9, Hop: 1, Dup: true}},
		{Kind: msgCounters, Counters: counters{Created: 4, Finished: 4, Sent: 12, Received: 12}},
		{Kind: msgPing},
		{Kind: msgShutdown},
		// Membership handshake and coordinator-control frames.
		{Kind: msgJoin, Addr: "127.0.0.1:9001"},
		{Kind: msgJoin}, // observer query
		{Kind: msgMembers, Members: []string{"127.0.0.1:9001", "127.0.0.1:9002"}, You: 1},
		{Kind: msgMembers, Members: []string{"127.0.0.1:9001"}, You: -1},
		{Kind: msgLeave, Node: 2},
		{Kind: msgInject, Job: 77, Agent: &agentMsg{Behavior: "ring"}},
		{Kind: msgSetVar, Name: "x", Value: &stateBox{V: int64(42)}},
		{Kind: msgGetVar, Name: "x"},
		{Kind: msgVar, Value: &stateBox{V: "hello"}},
		{Kind: msgCancel, Job: 3},
		{Kind: msgFree, Job: 3},
		{Kind: msgClear, Name: "job.3."},
		{Kind: msgOK, Err: "wire: nope"},
		// Elasticity control frames and the tombstone-shell refusal ack.
		{Kind: msgAck, Ack: ackMsg{ID: 9, Hop: 2, Refused: true}},
		// An older client's migration-marking frames: unknown kinds, refused.
		{Kind: "migrate", Node: 1, Job: 7, Count: 2},
		{Kind: "migrated", Count: 2},
		{Kind: msgFreeze, Job: 7},
		{Kind: msgThaw, Job: 7},
		{Kind: msgDrain, Count: 5000},
		{Kind: msgAbsorb, Node: 2, Counters: counters{Created: 3, Finished: 3, Sent: 9, Received: 9},
			PerJob: map[uint64]counters{7: {Created: 3, Finished: 3, Sent: 9, Received: 9}}},
	} {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, append([]byte(nil), f.bytes()...))
		f.release()
	}
	valid := seeds[0]
	seeds = append(seeds,
		nil,                      // empty input
		valid[:len(valid)/2],     // truncated body
		valid[:1],                // truncated prefix
		[]byte{0x80, 0x80, 0x80}, // unterminated uvarint
		append(binary.AppendUvarint(nil, maxFrameBytes+1), valid...), // oversize claim
	)
	// Single-byte corruptions of a valid frame.
	for _, i := range []int{0, 1, len(valid) / 2, len(valid) - 1} {
		c := append([]byte(nil), valid...)
		c[i] ^= 0xff
		seeds = append(seeds, c)
	}
	return seeds
}

// FuzzDecodeFrame is the decoder robustness fuzz target: any byte string
// must produce either a valid envelope or an error — never a panic, and
// never an envelope violating the frame invariants.
func FuzzDecodeFrame(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeFrame(data)
		if err != nil {
			return
		}
		if env == nil {
			t.Fatal("nil envelope without error")
		}
		if verr := env.validate(); verr != nil {
			t.Fatalf("decoder returned invalid envelope: %v", verr)
		}
		// A decoded frame must re-encode (the round trip a retransmission
		// depends on). State payloads of unregistered types are the one
		// legitimate exception gob cannot re-encode.
		if (env.Kind != msgAgent && env.Kind != msgInject) || env.Agent.State == nil {
			f, rerr := encodeFrame(env)
			if rerr != nil {
				t.Fatalf("decoded frame does not re-encode: %v", rerr)
			}
			f.release()
		}
	})
}

func TestDecodeFrameRoundTrip(t *testing.T) {
	env := &envelope{Kind: msgAgent, Agent: &agentMsg{ID: 42, Hop: 5, Behavior: "dot"}}
	f, err := encodeFrame(env)
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	got, err := decodeFrame(f.bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Agent.ID != 42 || got.Agent.Hop != 5 || got.Agent.Behavior != "dot" {
		t.Fatalf("round trip lost fields: %+v", got.Agent)
	}
}

func TestDecodeFrameRejectsOversizePrefix(t *testing.T) {
	data := binary.AppendUvarint(nil, maxFrameBytes+1)
	data = append(data, bytes.Repeat([]byte{0}, 16)...)
	if _, err := decodeFrame(data); err != errFrameTooLarge {
		t.Fatalf("err = %v, want %v", err, errFrameTooLarge)
	}
}

func TestDecodeFrameRejectsTruncation(t *testing.T) {
	f, err := encodeFrame(&envelope{Kind: msgPing})
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	frame := f.bytes()
	for cut := 0; cut < len(frame); cut++ {
		if _, err := decodeFrame(frame[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", cut, len(frame))
		}
	}
}

// TestDecodeFrameRejectsUnknownKind: a kind this build does not speak
// is refused with an error, never dispatched and never a panic.
// "migrate" and "migrated" are the frames of the migration-marking
// operation an older client may still send.
func TestDecodeFrameRejectsUnknownKind(t *testing.T) {
	for _, env := range []*envelope{
		{Kind: "gremlin"},
		{Kind: "migrate", Node: 1, Job: 7, Count: 2},
		{Kind: "migrated", Count: 2},
	} {
		f, err := encodeFrame(env)
		if err != nil {
			t.Fatal(err)
		}
		_, err = decodeFrame(f.bytes())
		f.release()
		if err == nil || !strings.Contains(err.Error(), "unknown frame kind") {
			t.Fatalf("%q frame: decode error %v, want an unknown-kind refusal", env.Kind, err)
		}
	}
}

func TestDecodeFrameRejectsAgentWithoutBehavior(t *testing.T) {
	f, err := encodeFrame(&envelope{Kind: msgAgent, Agent: &agentMsg{ID: 1}})
	if err != nil {
		t.Fatal(err)
	}
	defer f.release()
	if _, err := decodeFrame(f.bytes()); err == nil {
		t.Fatal("agent frame without behavior accepted")
	}
}

// FuzzParseSeeds fuzzes the seed-list parser — operator-supplied text
// handed to every daemon at boot. Accepted output must satisfy the
// member-list invariants and survive the Format/Parse round trip.
func FuzzParseSeeds(f *testing.F) {
	for _, s := range []string{
		"127.0.0.1:7001\n127.0.0.1:7002\n",
		"a:1, b:2 # trailing\n# full-line comment\nc:3",
		"", "a:1\na:1", "[::1]:80\nhost.example:443",
		"bad addr:1", "a:1,,,\n\n#\n",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		addrs, err := ParseSeeds(text)
		if err != nil {
			return
		}
		if len(addrs) == 0 {
			t.Fatal("ParseSeeds returned an empty list without error")
		}
		if verr := validateMembers(addrs); verr != nil {
			t.Fatalf("ParseSeeds accepted an invalid list: %v", verr)
		}
		round, rerr := ParseSeeds(FormatSeeds(addrs))
		if rerr != nil {
			t.Fatalf("Format/Parse round trip failed: %v", rerr)
		}
		if len(round) != len(addrs) {
			t.Fatalf("round trip changed length: %d != %d", len(round), len(addrs))
		}
		for i := range addrs {
			if round[i] != addrs[i] {
				t.Fatalf("round trip changed entry %d: %q != %q", i, round[i], addrs[i])
			}
		}
	})
}

// FuzzMembershipUpdate fuzzes the join/leave/update handshake state
// machine with an arbitrary interleaving of operations, checking the
// stability invariant afterwards: an index, once assigned, never maps
// to a different address.
func FuzzMembershipUpdate(f *testing.F) {
	f.Add("j127.0.0.1:1\nj127.0.0.1:2\nl1\nu127.0.0.1:1,127.0.0.1:2,127.0.0.1:3")
	f.Add("u1:1\nj1:1\nl0\nj1:1")
	f.Add("jx\nu\nl-1")
	f.Fuzz(func(t *testing.T, script string) {
		m := newMembership(nil)
		assigned := map[int]string{} // index → address, pinned at first sight
		record := func() {
			for i, a := range m.list() {
				if prev, ok := assigned[i]; ok && prev != a {
					t.Fatalf("index %d remapped from %q to %q", i, prev, a)
				} else if !ok {
					assigned[i] = a
				}
			}
		}
		for _, line := range strings.Split(script, "\n") {
			if line == "" {
				continue
			}
			op, arg := line[0], line[1:]
			switch op {
			case 'j':
				if id, err := m.add(arg); err == nil {
					if got, _ := m.addr(id); got != arg {
						t.Fatalf("add(%q) = %d but addr(%d) = %q", arg, id, id, got)
					}
				}
			case 'u':
				m.update(strings.Split(arg, ","))
			case 'l':
				if n, err := strconv.Atoi(arg); err == nil {
					m.leave(n)
				}
			}
			record()
		}
	})
}

// TestFuzzSeedsNeverPanic runs every seed through the target directly, so
// the corpus is exercised on plain `go test` runs too (the fuzz engine
// only replays it under -fuzz / in its own target run).
func TestFuzzSeedsNeverPanic(t *testing.T) {
	for i, seed := range fuzzSeeds(t) {
		if env, err := decodeFrame(seed); err == nil && env == nil {
			t.Fatalf("seed %d: nil envelope without error", i)
		}
	}
}
