package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestQuickTablesGolden pins every virtual time of Tables 1–4 in quick
// mode at full float64 precision, not just the digits Format prints: a
// change to the simulation kernel, the machine model or a NavP/MP stage
// that moves any finish time by one ulp shows up as a golden diff
// (-update rewrites it).
func TestQuickTablesGolden(t *testing.T) {
	var b strings.Builder
	for _, build := range []func(Options) (*Table, error){Table1, Table2, Table3, Table4} {
		tb, err := build(Options{Quick: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range tb.Rows {
			b.WriteString(tb.Name + " N=" + strconv.Itoa(r.N) + " Sequential " +
				strconv.FormatFloat(r.SeqActual, 'g', -1, 64) + "\n")
			for _, e := range r.Entries {
				b.WriteString(tb.Name + " N=" + strconv.Itoa(r.N) + " " + e.Column + " " +
					strconv.FormatFloat(e.Seconds, 'g', -1, 64) + "\n")
			}
		}
	}
	got := b.String()
	golden := filepath.Join("testdata", "quick_tables.golden")
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
		t.Errorf("quick-table virtual times drifted from golden file.\ngot:\n%s\nwant:\n%s", got, want)
	}
}
