package matmul

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/navp"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestNamesTable: the handle tables the stages mint read back the
// labels "prefix:i", "prefix:i:j" and "prefix:i:j:k", every label of a
// table is distinct, and minting a table costs at most one allocation
// however many handles it holds.
func TestNamesTable(t *testing.T) {
	sys := navp.NewReal(navp.Config{}, 1)
	for _, c := range []struct {
		prefix string
		label  func() string
		want   string
	}{
		{"Arow", func() string { return sys.VarName(sys.Vars("Arow", 12).At(10)) }, "Arow:10"},
		{"C", func() string { return sys.VarName(sys.Vars("C", 12, 12).At2(3, 11)) }, "C:3:11"},
		{"EP", func() string { return sys.EventName(sys.Events("EP", 12, 12, 12).At3(11, 0, 7)) }, "EP:11:0:7"},
		{"EP", func() string { return sys.EventName(sys.Events("EP", 1, 1, 1).At3(0, 0, 0)) }, "EP:0:0:0"},
	} {
		if got := c.label(); got != c.want {
			t.Errorf("%s table: got %q, want %q", c.prefix, got, c.want)
		}
	}
	tab := sys.Events("EP", 32, 32, 32)
	seen := map[string]bool{}
	for i := 0; i < 32; i++ {
		for j := 0; j < 32; j++ {
			for k := 0; k < 32; k++ {
				n := sys.EventName(tab.At3(i, j, k))
				if seen[n] {
					t.Fatalf("name %q appears twice", n)
				}
				seen[n] = true
			}
		}
	}
	if len(seen) != 32*32*32 {
		t.Fatalf("%d names, want %d", len(seen), 32*32*32)
	}
	if allocs := testing.AllocsPerRun(10, func() { sys.Events("EP", 32, 32, 32) }); allocs > 1 {
		t.Fatalf("minting a table made %v allocations, want at most 1", allocs)
	}
}

// TestProgramNamesGolden runs the 2-D stages at NB = 4, traced, on the
// simulation backend and pins every wait and signal label and every
// node-variable read the program makes, with their counts, per node.
// The golden was recorded before the names moved into per-problem
// tables, when each was built per call; the B deposits of the per-block
// stages, node variables "Bdep:i:j:k" then, are slot arrays now and have
// no reads to pin. -update rewrites it.
func TestProgramNamesGolden(t *testing.T) {
	var b strings.Builder
	for _, stage := range []Stage{DSC2D, Pipeline2D, Phase2D} {
		rec := trace.New()
		cfg := testConfig(64, 16, 2)
		cfg.Tracer = rec
		count := map[string]int{}
		pr := newProblem(stage, cfg)
		pr.onRead = func(node int, name string) { count[fmt.Sprintf("read %d %s", node, name)]++ }
		if _, err := pr.run(); err != nil {
			t.Fatalf("%v: %v", stage, err)
		}
		for _, ev := range rec.Events() {
			switch ev.Kind {
			case trace.TraceWait:
				count[fmt.Sprintf("wait %d %s", ev.From, ev.Label)]++
			case trace.TraceSignal:
				count[fmt.Sprintf("signal %d %s", ev.From, ev.Label)]++
			}
		}
		lines := make([]string, 0, len(count))
		for k, n := range count {
			lines = append(lines, fmt.Sprintf("%s x%d", k, n))
		}
		sort.Strings(lines)
		fmt.Fprintf(&b, "== %v\n%s\n", stage, strings.Join(lines, "\n"))
	}
	got := b.String()
	golden := filepath.Join("testdata", "program_names.golden")
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
		t.Fatalf("wait/signal labels or node-variable reads changed:\n got:\n%s\nwant:\n%s", got, want)
	}
}
