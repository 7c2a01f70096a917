package fault

import (
	"math"
	"reflect"
	"testing"
)

func TestDecideIsDeterministic(t *testing.T) {
	p := &Plan{Seed: 42, Drop: 0.3, Dup: 0.5, Delay: 0.4, MaxDelay: 0.01}
	for seq := uint64(0); seq < 200; seq++ {
		a := p.Decide(1, 2, seq, 0)
		b := p.Decide(1, 2, seq, 0)
		if a != b {
			t.Fatalf("seq %d: %+v != %+v", seq, a, b)
		}
	}
}

func TestDecideVariesWithIdentity(t *testing.T) {
	p := &Plan{Seed: 1, Drop: 0.5}
	// Across 64 sequence numbers the drop verdict must not be constant,
	// and changing any identity component must change some verdicts.
	differs := func(alt func(seq uint64) Decision) bool {
		for seq := uint64(0); seq < 64; seq++ {
			if p.Decide(0, 1, seq, 0) != alt(seq) {
				return true
			}
		}
		return false
	}
	if !differs(func(seq uint64) Decision { return p.Decide(0, 2, seq, 0) }) {
		t.Error("dst does not influence decisions")
	}
	if !differs(func(seq uint64) Decision { return p.Decide(3, 1, seq, 0) }) {
		t.Error("src does not influence decisions")
	}
	if !differs(func(seq uint64) Decision { return p.Decide(0, 1, seq, 1) }) {
		t.Error("attempt does not influence decisions; a dropped frame would be dropped forever")
	}
	q := &Plan{Seed: 2, Drop: 0.5}
	if !differs(func(seq uint64) Decision { return q.Decide(0, 1, seq, 0) }) {
		t.Error("seed does not influence decisions")
	}
}

func TestDecideRates(t *testing.T) {
	p := &Plan{Seed: 7, Drop: 0.2, Dup: 0.5, Delay: 0.3, MaxDelay: 1}
	const n = 20000
	var drops, dups int
	var delayed int
	for seq := uint64(0); seq < n; seq++ {
		d := p.Decide(0, 1, seq, 0)
		if d.Drop {
			drops++
			continue // drop short-circuits the other aspects
		}
		dups += d.Dup
		if d.Delay > 0 {
			delayed++
			if d.Delay > p.MaxDelay {
				t.Fatalf("delay %g exceeds MaxDelay %g", d.Delay, p.MaxDelay)
			}
		}
	}
	if got := float64(drops) / n; math.Abs(got-0.2) > 0.02 {
		t.Errorf("drop rate %.3f, want ≈0.20", got)
	}
	survivors := float64(n - drops)
	if got := float64(dups) / survivors; math.Abs(got-0.5) > 0.02 {
		t.Errorf("dup rate %.3f, want ≈0.50", got)
	}
	if got := float64(delayed) / survivors; math.Abs(got-0.3) > 0.02 {
		t.Errorf("delay rate %.3f, want ≈0.30", got)
	}
}

func TestWholeDupCount(t *testing.T) {
	p := &Plan{Seed: 3, Dup: 10}
	for seq := uint64(0); seq < 50; seq++ {
		if d := p.Decide(0, 1, seq, 0); d.Dup != 10 {
			t.Fatalf("Dup=10 plan produced %d duplicates", d.Dup)
		}
	}
}

func TestKillNow(t *testing.T) {
	p := &Plan{Kills: []Kill{{Node: 2, AfterArrivals: 5}}}
	if p.KillNow(2, 4) || p.KillNow(1, 5) {
		t.Error("kill fired at wrong trigger")
	}
	if !p.KillNow(2, 5) {
		t.Error("kill did not fire at its trigger")
	}
	if p.KillNow(2, 6) {
		t.Error("kill re-fired past its trigger")
	}
}

func TestNilAndZeroPlansAreInert(t *testing.T) {
	var nilPlan *Plan
	if nilPlan.Active() || nilPlan.KillNow(0, 0) {
		t.Error("nil plan reported activity")
	}
	if d := nilPlan.Decide(0, 1, 0, 0); d != (Decision{}) {
		t.Errorf("nil plan decided %+v", d)
	}
	zero := &Plan{}
	if zero.Active() {
		t.Error("zero plan reported activity")
	}
	if d := zero.Decide(0, 1, 0, 0); d != (Decision{}) {
		t.Errorf("zero plan decided %+v", d)
	}
}

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("seed=7,drop=0.01,dup=10,delay=0.2,maxdelay=2ms,retry=50ms,restart=0.1,kill=1@3,kill=2@9")
	if err != nil {
		t.Fatal(err)
	}
	if p.Seed != 7 || p.Drop != 0.01 || p.Dup != 10 || p.Delay != 0.2 {
		t.Fatalf("parsed %+v", p)
	}
	if math.Abs(p.MaxDelay-0.002) > 1e-12 || math.Abs(p.RetryTimeout-0.05) > 1e-12 || p.RestartDelay != 0.1 {
		t.Fatalf("parsed durations %+v", p)
	}
	if len(p.Kills) != 2 || p.Kills[0] != (Kill{1, 3}) || p.Kills[1] != (Kill{2, 9}) {
		t.Fatalf("parsed kills %+v", p.Kills)
	}
	want := "seed=7,drop=0.01,dup=10,delay=0.2,maxdelay=0.002s,retry=0.05s,restart=0.1s,kill=1@3,kill=2@9"
	if got := p.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	back, err := Parse(p.String())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, p) {
		t.Errorf("Parse(String()) = %+v, want %+v", back, p)
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	for _, spec := range []string{"drop", "drop=2", "drop=-1", "bogus=1", "kill=3", "kill=a@b", "maxdelay=xyz"} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	if p, err := Parse("  "); err != nil || p.Active() {
		t.Errorf("empty spec: %v %+v", err, p)
	}
}

// TestSeqKeepsOriginBits is the regression for the wire runtime's old
// lossy fold (`id<<16 ^ hop`): agent IDs carrying the origin node in
// bit 40 and up must map to distinct fault sequences, so chaos
// decisions for agents born on different nodes stay independent.
func TestSeqKeepsOriginBits(t *testing.T) {
	id := func(node, counter uint64) uint64 { return node<<40 | counter }
	lossy := func(id, hop uint64) uint64 { return id<<16 ^ hop }

	// Nodes 0 and 256 with the same per-node counter collide under the
	// lossy fold (node bits 8+ shift past bit 63)...
	if lossy(id(0, 1), 3) != lossy(id(256, 1), 3) {
		t.Fatal("test premise wrong: lossy fold no longer collides")
	}
	// ...and must not collide under Seq.
	if Seq(id(0, 1), 3) == Seq(id(256, 1), 3) {
		t.Fatal("Seq collides for distinct origin nodes")
	}

	// Spot-check broader collision resistance over a small grid.
	seen := map[uint64][2]uint64{}
	for node := uint64(0); node < 64; node++ {
		for counter := uint64(1); counter <= 64; counter++ {
			for hop := uint64(0); hop < 4; hop++ {
				s := Seq(id(node, counter), hop)
				if prev, dup := seen[s]; dup {
					t.Fatalf("Seq collision: (%d,%d) vs %v", id(node, counter), hop, prev)
				}
				seen[s] = [2]uint64{id(node, counter), hop}
			}
		}
	}

	// Determinism: Seq is a pure function.
	if Seq(42, 7) != Seq(42, 7) {
		t.Fatal("Seq not deterministic")
	}
}
