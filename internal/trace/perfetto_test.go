package trace_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestPerfettoGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := chaosTrace().WritePerfetto(&buf, 3); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "perfetto_chaos.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with -update to regenerate): %v", err)
	}
	if buf.String() != string(want) {
		t.Errorf("perfetto export drifted from golden file.\ngot:\n%s\nwant:\n%s", buf.String(), want)
	}
}

// TestPerfettoSchema validates the export against the trace_event
// contract Perfetto actually enforces: valid JSON, a traceEvents array,
// known phases, microsecond timestamps, dur on (and only on) complete
// spans, and a thread-name metadata record per PE track.
func TestPerfettoSchema(t *testing.T) {
	var buf bytes.Buffer
	if err := chaosTrace().WritePerfetto(&buf, 3); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}
	tracks := map[float64]bool{}
	for i, ev := range doc.TraceEvents {
		ph, _ := ev["ph"].(string)
		switch ph {
		case "M":
			args, _ := ev["args"].(map[string]any)
			name, _ := args["name"].(string)
			meta, _ := ev["name"].(string)
			switch meta {
			case "process_name":
				if name != "cluster" && !strings.HasPrefix(name, "job ") {
					t.Fatalf("event %d: process metadata without a group name: %v", i, ev)
				}
			case "thread_name":
				if !strings.HasPrefix(name, "PE ") {
					t.Fatalf("event %d: thread metadata without a PE name: %v", i, ev)
				}
				tracks[ev["tid"].(float64)] = true
			default:
				t.Fatalf("event %d: unknown metadata record %q: %v", i, meta, ev)
			}
		case "X":
			if _, ok := ev["dur"].(float64); !ok {
				t.Fatalf("event %d: complete span without dur: %v", i, ev)
			}
		case "i":
			if _, ok := ev["dur"]; ok {
				t.Fatalf("event %d: instant with dur: %v", i, ev)
			}
			if s, _ := ev["s"].(string); s != "t" {
				t.Fatalf("event %d: instant scope = %q, want \"t\"", i, s)
			}
		default:
			t.Fatalf("event %d: unknown phase %q", i, ph)
		}
		if ph != "M" {
			if _, ok := ev["ts"].(float64); !ok {
				t.Fatalf("event %d: missing ts: %v", i, ev)
			}
		}
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d: missing name: %v", i, ev)
		}
	}
	if len(tracks) != 3 {
		t.Fatalf("got %d PE tracks, want 3", len(tracks))
	}
}

// TestPerfettoJobTracks checks the multi-tenant export: events tagged
// with a job land in that job's own process group, untagged runtime
// events stay in the base "cluster" group, and pid assignment follows
// ascending job order regardless of the interleaving recorded.
func TestPerfettoJobTracks(t *testing.T) {
	rec := trace.New()
	rec.Record(trace.TraceEvent{Kind: trace.TraceHop, Job: 7, Agent: "b", From: 0, To: 1, Start: 1, End: 1})
	rec.Record(trace.TraceEvent{Kind: trace.TraceHop, Job: 3, Agent: "a", From: 1, To: 0, Start: 2, End: 2})
	rec.Record(trace.TraceEvent{Kind: trace.TraceKill, From: 0, To: 0, Start: 3, End: 3})
	var buf bytes.Buffer
	if err := rec.WritePerfetto(&buf, 2); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	groups := map[float64]string{} // pid -> process name
	byName := map[string]float64{} // event name -> pid
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "process_name" {
			groups[ev["pid"].(float64)] = ev["args"].(map[string]any)["name"].(string)
		}
		if ev["ph"] != "M" {
			args, _ := ev["args"].(map[string]any)
			agent, _ := args["agent"].(string)
			byName[ev["name"].(string)+":"+agent] = ev["pid"].(float64)
			if ev["name"] == "kill" && ev["pid"].(float64) != 1 {
				t.Fatalf("untagged kill event on pid %v, want the cluster group", ev["pid"])
			}
		}
	}
	if len(groups) != 3 {
		t.Fatalf("got %d process groups %v, want cluster + 2 jobs", len(groups), groups)
	}
	if groups[1] != "cluster" || groups[2] != "job 3" || groups[3] != "job 7" {
		t.Fatalf("process groups %v, want pid1=cluster pid2=job 3 pid3=job 7", groups)
	}
	if byName["hop:a"] != 2 || byName["hop:b"] != 3 {
		t.Fatalf("job events landed on pids %v, want job 3 events on pid 2 and job 7 on pid 3", byName)
	}
}

func TestPerfettoDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := chaosTrace().WritePerfetto(&a, 3); err != nil {
		t.Fatal(err)
	}
	if err := chaosTrace().WritePerfetto(&b, 3); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("perfetto export is not deterministic")
	}
}

// TestSpaceTimeShowsZeroWidthCompute is the regression test for the
// boundary bug: the real backend stamps compute spans with Start == End,
// and a span exactly on the trace's finish time indexed one row past the
// diagram — both used to vanish.
func TestSpaceTimeShowsZeroWidthCompute(t *testing.T) {
	rec := trace.New()
	// One real span to give the diagram a finish time, then zero-width
	// computes by a second agent, including one at the finish boundary.
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "wide", From: 0, To: 0, Start: 0, End: 4})
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "thin", From: 1, To: 1, Start: 2, End: 2})
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "thin", From: 1, To: 1, Start: 4, End: 4})
	art := rec.SpaceTime(2, 4)
	// Agent symbols: wide = '0', thin = '1'.
	if got := strings.Count(cellArea(t, art), "1"); got != 2 {
		t.Fatalf("zero-width spans visible = %d, want 2 (mid-run and finish boundary):\n%s", got, art)
	}
}

// cellArea strips the header, legend, and row time labels from a
// space-time diagram, leaving only the agent-symbol cells.
func cellArea(t *testing.T, art string) string {
	t.Helper()
	var cells strings.Builder
	for _, line := range strings.Split(art, "\n") {
		_, row, ok := strings.Cut(line, "s  ")
		if !ok || !strings.HasSuffix(line, " ") {
			continue // header, legend, or blank — not a diagram row
		}
		cells.WriteString(row)
		cells.WriteByte('\n')
	}
	if cells.Len() == 0 {
		t.Fatalf("no diagram rows found in:\n%s", art)
	}
	return cells.String()
}

// TestSpaceTimeZeroWidthDoesNotOutweighRealWork checks the epsilon
// credit loses the cell to any agent with genuine compute time there.
func TestSpaceTimeZeroWidthDoesNotOutweighRealWork(t *testing.T) {
	rec := trace.New()
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "wide", From: 0, To: 0, Start: 0, End: 4})
	rec.Record(trace.TraceEvent{Kind: trace.TraceCompute, Agent: "thin", From: 0, To: 0, Start: 1, End: 1})
	art := rec.SpaceTime(1, 4)
	if strings.Contains(cellArea(t, art), "1") {
		t.Fatalf("epsilon occupancy beat a real compute span:\n%s", art)
	}
}
