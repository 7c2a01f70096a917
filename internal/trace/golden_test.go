package trace_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chaosTrace builds a fixed event sequence exercising every fault mark:
// three PEs computing, a dropped frame with its retry on PE 0, a kill and
// recovery on PE 1, and an undisturbed hop. Hand-built events keep the
// golden file independent of scheduler timing.
func chaosTrace() *trace.Recorder {
	rec := trace.New()
	ev := func(kind trace.TraceKind, agent string, from, to int, bytes int64, start, end float64, label string) {
		rec.Record(trace.TraceEvent{Kind: kind, Agent: agent, From: from, To: to,
			Bytes: bytes, Start: start, End: end, Label: label})
	}
	ev(trace.TraceCompute, "alpha", 0, 0, 0, 0.0, 3.0, "")
	ev(trace.TraceCompute, "beta", 1, 1, 0, 0.0, 2.0, "")
	ev(trace.TraceCompute, "gamma", 2, 2, 0, 1.0, 7.0, "")
	ev(trace.TraceDrop, "alpha", 0, 1, 800, 3.0, 3.0, "")
	ev(trace.TraceRetry, "alpha", 0, 1, 800, 4.1, 4.1, "attempt 2")
	ev(trace.TraceHop, "alpha", 0, 1, 800, 4.2, 4.2, "")
	ev(trace.TraceKill, "", 1, 1, 0, 5.0, 5.0, "")
	ev(trace.TraceRecover, "", 1, 1, 0, 6.0, 6.0, "1 agents replayed")
	ev(trace.TraceCompute, "alpha", 1, 1, 0, 6.2, 8.0, "")
	return rec
}

func TestSpaceTimeFaultMarksGolden(t *testing.T) {
	got := chaosTrace().SpaceTime(3, 8)
	golden := filepath.Join("testdata", "spacetime_faults.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if got != string(want) {
		t.Errorf("space-time diagram drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}

func TestSpaceTimeFaultPrecedence(t *testing.T) {
	// A kill and a retry in the same cell: the kill mark must win.
	rec := trace.New()
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "a", From: 0, To: 0, Start: 0, End: 4})
	rec.Record(trace.TraceEvent{Kind: trace.TraceRetry, Agent: "a", From: 0, To: 1, Start: 1, End: 1})
	rec.Record(trace.TraceEvent{Kind: trace.TraceKill, From: 0, To: 0, Start: 1.2, End: 1.2})
	art := rec.SpaceTime(2, 4)
	if !strings.Contains(art, "#") {
		t.Fatalf("kill mark missing:\n%s", art)
	}
	// 'r' appears in the legend text; the diagram body itself must not
	// show the retry mark (cells are padded with two spaces).
	body := art[:strings.Index(art, "legend:")]
	if strings.Contains(body, "r  ") {
		t.Fatalf("retry mark shown despite kill in same cell:\n%s", art)
	}
	if !strings.Contains(art, "faults: x=drop, r=retry, #=kill, +=recover") {
		t.Fatalf("fault legend missing:\n%s", art)
	}
}

func TestSpaceTimeNoFaultLegendWhenClean(t *testing.T) {
	rec := trace.New()
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "a", From: 0, To: 0, Start: 0, End: 1})
	if art := rec.SpaceTime(1, 4); strings.Contains(art, "faults:") {
		t.Fatalf("fault legend on a clean trace:\n%s", art)
	}
}

func TestStatsCountsFaults(t *testing.T) {
	st := chaosTrace().Stats()
	if st.Drops != 1 || st.Retries != 1 || st.Kills != 1 || st.Recovers != 1 {
		t.Fatalf("fault counts = %d/%d/%d/%d, want 1/1/1/1",
			st.Drops, st.Retries, st.Kills, st.Recovers)
	}
	if st.Hops != 1 || st.Agents != 4 { // alpha, beta, gamma, "" (daemon events)
		t.Fatalf("hops = %d, agents = %d", st.Hops, st.Agents)
	}
}
