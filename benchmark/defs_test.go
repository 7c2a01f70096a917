package main

import (
	"bytes"
	"fmt"
	"regexp"
	"strings"
	"testing"
)

// The names are what later changes cite; they must fit the benchmark
// contract's alphabet and lengths.
func TestNamesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, wl := range workloads {
		use(wl.Name)
		if len(wl.Why) > 200 || strings.ContainsAny(wl.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", wl.Name, len(wl.Why))
		}
		if wl.run == nil {
			t.Errorf("workload %s has no run function", wl.Name)
		}
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		use(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q does not match %v", m.Name, m.Unit, unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(perLayer) > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", len(perLayer))
	}
}

// -list, the tables and BENCHMARK.json say the same thing.
func TestListEqualsManifest(t *testing.T) {
	m, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, wl := range m.Workloads {
		want.WriteString("workload " + wl.Name + "\n")
	}
	for _, mm := range m.EndToEnd {
		if mm.Bound == nil {
			t.Fatalf("BENCHMARK.json: end-to-end metric %s has no bound", mm.Name)
		}
		want.WriteString("end_to_end " + mm.Name + " " + mm.Unit + " " + mm.Better + " " + fmt.Sprintf("%g", *mm.Bound) + "\n")
	}
	for _, mm := range m.PerLayer {
		if mm.Bound != nil {
			t.Errorf("BENCHMARK.json: per-layer metric %s has a bound", mm.Name)
		}
		want.WriteString("per_layer " + mm.Name + " " + mm.Unit + " " + mm.Better + "\n")
	}
	var listed bytes.Buffer
	printList(&listed)
	var got strings.Builder // -list without the explanations after the tabs
	for _, line := range strings.SplitAfter(listed.String(), "\n") {
		if line != "" {
			facts, _, _ := strings.Cut(line, "\t")
			got.WriteString(facts + "\n")
		}
	}
	if got.String() != want.String() {
		t.Errorf("-list and BENCHMARK.json differ\n-list:\n%s\nBENCHMARK.json:\n%s", got.String(), want.String())
	}
	for i, wl := range m.Workloads {
		if i < len(workloads) && wl.Why != workloads[i].Why {
			t.Errorf("BENCHMARK.json: why of %s differs from the table's", wl.Name)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", m.RunSeconds)
	}
	var setup *manifestMetric
	for i := range m.EndToEnd {
		if m.EndToEnd[i].Name == "setup_s" {
			setup = &m.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("BENCHMARK.json needs setup_s in s, lower is better; has %+v", setup)
	}
}

func TestResultsRejectUnknownNames(t *testing.T) {
	r := results{}
	r.set("solo_p50_ms", 1, 1, "")
	r.set("wire.hop_p50_us", 1, 1, "")
	if err := r.check(); err != nil {
		t.Fatalf("known names rejected: %v", err)
	}
	r.set("wire.hop_p50_ms", 1, 1, "")
	if err := r.check(); err == nil || !strings.Contains(err.Error(), "wire.hop_p50_ms") {
		t.Fatalf("unknown name accepted: %v", err)
	}
}

func TestWorsening(t *testing.T) {
	for _, tc := range []struct {
		better string
		a, b   float64
		want   float64
	}{
		{"lower", 100, 110, 0.10},
		{"lower", 100, 90, -0.10},
		{"higher", 40, 30, 0.25},
		{"higher", 40, 50, -0.25},
		{"lower", 0, 5, 0},
	} {
		if got := worsening(tc.better, tc.a, tc.b); got < tc.want-1e-12 || got > tc.want+1e-12 {
			t.Errorf("worsening(%s, %v, %v) = %v, want %v", tc.better, tc.a, tc.b, got, tc.want)
		}
	}
}
