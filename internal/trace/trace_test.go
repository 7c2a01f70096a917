package trace_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/navp"
	"repro/internal/trace"
)

func record() (*trace.Recorder, *navp.System) {
	rec := trace.New()
	sys := navp.NewSim(navp.DefaultConfig(), machine.SunBlade100(), 3)
	sys.SetTracer(rec)
	return rec, sys
}

func TestRecorderCollectsAndSummarizes(t *testing.T) {
	rec, sys := record()
	x, e := sys.Var("x"), sys.Event("e")
	sys.Inject(0, "walker", func(ag *navp.Agent) {
		ag.Set(x, nil, 1000)
		ag.Hop(1)
		ag.Compute(110.7e6, nil) // ~1 s
		ag.Signal(e)
		ag.Wait(e)
		ag.Hop(2)
		ag.Compute(110.7e6, nil)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	st := rec.Stats()
	if st.Hops != 2 {
		t.Fatalf("hops = %d", st.Hops)
	}
	if st.HopBytes < 2000 {
		t.Fatalf("hop bytes = %d", st.HopBytes)
	}
	if st.ComputeTime < 1.9 || st.ComputeTime > 2.1 {
		t.Fatalf("compute time = %v", st.ComputeTime)
	}
	if st.Agents != 1 {
		t.Fatalf("agents = %d", st.Agents)
	}
	if st.Finish <= 0 {
		t.Fatal("no finish time")
	}
}

func TestHopMatrix(t *testing.T) {
	rec, sys := record()
	x := sys.Var("x")
	sys.Inject(0, "a", func(ag *navp.Agent) {
		ag.Set(x, nil, 500)
		ag.Hop(1)
		ag.Hop(2)
		ag.Hop(1)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	m := rec.HopMatrix(3)
	if m[0][1] == 0 || m[1][2] == 0 || m[2][1] == 0 {
		t.Fatalf("matrix = %v", m)
	}
	if m[0][2] != 0 {
		t.Fatalf("phantom transfer recorded: %v", m)
	}
}

func TestSpaceTimeRendersOccupancy(t *testing.T) {
	rec, sys := record()
	for i := 0; i < 2; i++ {
		i := i
		sys.Inject(i, "agent", func(ag *navp.Agent) {
			ag.Compute(110.7e6, nil)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	art := rec.SpaceTime(3, 10)
	if !strings.Contains(art, "legend:") {
		t.Fatal("no legend")
	}
	if !strings.Contains(art, "0") || !strings.Contains(art, "1") {
		t.Fatalf("agent symbols missing:\n%s", art)
	}
	lines := strings.Split(strings.TrimRight(art, "\n"), "\n")
	if len(lines) != 12 { // header + 10 rows + legend
		t.Fatalf("unexpected line count %d:\n%s", len(lines), art)
	}
}

func TestSpaceTimeEmptyTrace(t *testing.T) {
	rec := trace.New()
	if got := rec.SpaceTime(2, 5); !strings.Contains(got, "empty") {
		t.Fatalf("got %q", got)
	}
}

func TestRecorderThreadSafe(t *testing.T) {
	// Record from the real backend under -race.
	rec := trace.New()
	sys := navp.NewReal(navp.DefaultConfig(), 2)
	sys.SetTracer(rec)
	for i := 0; i < 8; i++ {
		sys.Inject(i%2, "a", func(ag *navp.Agent) {
			for j := 0; j < 10; j++ {
				ag.Hop((ag.Node().ID() + 1) % 2)
				ag.Compute(0, nil)
			}
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Len() < 160 {
		t.Fatalf("events = %d", rec.Len())
	}
}

func TestSpaceTimeManyAgentsSymbolFallback(t *testing.T) {
	// More agents than the symbol alphabet: the renderer must fall back
	// to '*' and truncate the legend instead of panicking.
	rec, sys := record()
	for i := 0; i < 70; i++ {
		i := i
		sys.Inject(i%3, fmt.Sprintf("agent%02d", i), func(ag *navp.Agent) {
			ag.Compute(1e6, nil)
		})
	}
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	art := rec.SpaceTime(3, 8)
	if !strings.Contains(art, "agents)") {
		t.Fatalf("legend not truncated:\n%s", art)
	}
}

func TestWriteCSV(t *testing.T) {
	rec, sys := record()
	x := sys.Var("x")
	sys.Inject(0, "a", func(ag *navp.Agent) {
		ag.Set(x, nil, 100)
		ag.Hop(1)
		ag.Compute(1e6, nil)
	})
	if err := sys.Run(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := rec.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "kind,agent,from,to,label,bytes,start,end\n") {
		t.Fatalf("missing header:\n%s", out)
	}
	if !strings.Contains(out, `hop,"a",0,1`) || !strings.Contains(out, `compute,"a",1,1`) {
		t.Fatalf("events missing:\n%s", out)
	}
	lines := strings.Count(out, "\n")
	if lines != rec.Len()+1 {
		t.Fatalf("lines = %d, events = %d", lines, rec.Len())
	}
}
