package main

import (
	"fmt"
	"io"
	"math"
)

// worsening is how much worse b is than a, as a share of a, for a
// metric where better says which direction is good; negative when b is
// the better one.
func worsening(better string, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runCheck is -check: the end-to-end half twice with the same seed. It
// prints how far each metric moved between the two runs beside the
// bound BENCHMARK.json fixes for it, and fails if any moved further —
// in either direction, since neither run is the better code.
func runCheck(wl *workloadDef, seed int64, seconds float64, stdout, stderr io.Writer) int {
	m, err := loadManifest()
	if err != nil {
		fmt.Fprintf(stderr, "navpbench: -check: %v\n", err)
		return 2
	}
	bounds := map[string]manifestMetric{}
	for _, mm := range m.EndToEnd {
		bounds[mm.Name] = mm
	}
	var runs [2]*bench
	for i := range runs {
		b := newBench(wl, seed, seconds, false, i == 0)
		if err := runHalf(b, deadlineFor(seconds), stderr); err != nil {
			fmt.Fprintf(stderr, "navpbench: %s: run %d: %v\n", wl.Name, i+1, err)
			return 1
		}
		if b.failed > 0 {
			fmt.Fprintf(stderr, "navpbench: %s: run %d: %d of %d operations failed; first: %v\n",
				wl.Name, i+1, b.failed, b.attempted, b.firstErr)
			return 1
		}
		runs[i] = b
	}
	fmt.Fprintf(stdout, "check %s seed=%d: two runs of the same code\n", wl.Name, seed)
	fmt.Fprintf(stdout, "  %-14s %12s %12s %9s %7s\n", "metric", "run 1", "run 2", "moved", "bound")
	bad := 0
	for _, def := range endToEnd {
		mm, ok := bounds[def.Name]
		if !ok || mm.Bound == nil {
			fmt.Fprintf(stderr, "navpbench: -check: BENCHMARK.json has no bound for %s\n", def.Name)
			return 2
		}
		a, b := runs[0].res[def.Name].V, runs[1].res[def.Name].V
		moved := math.Abs(worsening(mm.Better, a, b))
		verdict := ""
		if moved > *mm.Bound {
			verdict = "  BEYOND ITS BOUND"
			bad++
		}
		fmt.Fprintf(stdout, "  %-14s %12.4f %12.4f %8.1f%% %6.0f%%%s\n", def.Name, a, b, moved*100, *mm.Bound*100, verdict)
	}
	if bad > 0 {
		return 1
	}
	return 0
}
