// Command navpbench is the repository's benchmark: the serving path and
// the paper's progression, each measured end to end and layer by layer
// from outside, through the public functions of the packages under
// internal/. BENCHMARK.json at the repository root names what it
// reports; README.md in this directory explains every name.
//
//	go run ./benchmark -workload serve-p4 -seed 1
//
// runs one workload — the untraced end-to-end half, then the traced
// per-layer half — checks every output, and prints every metric by
// name with its unit and sample count. The last line of standard output
// is one JSON object. -trace 0 or -trace 1 runs one half only.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/matrix"
	"repro/internal/wire"
)

// processStart approximates when the process began; the first set-up of
// a run is timed from it.
var processStart = time.Now()

// bench is one half (untraced or traced) of one workload run.
type bench struct {
	wl       *workloadDef
	seed     int64
	seconds  float64
	traced   bool
	traceOut string
	res      results
	spans    []span // what -trace-out writes for a serving workload

	tally
	begun  time.Time // when this half began: the process start for a run's first
	setups int

	// abandoned is set when the half overran its deadline: its loops
	// stop at their next turn.
	abandoned atomic.Bool
}

// share is the part of the run's measuring time a phase gets.
func (b *bench) share(f float64) time.Duration {
	return time.Duration(f * b.seconds * float64(time.Second))
}

// setupStart is the instant a set-up round counts from: the beginning
// of the half for the first, now for the rest.
func (b *bench) setupStart() time.Time {
	b.setups++
	if b.setups == 1 {
		return b.begun
	}
	return time.Now()
}

// newBench starts a half of a run. first says it is the process's
// first, whose set-up began when the process did.
func newBench(wl *workloadDef, seed int64, seconds float64, traced, first bool) *bench {
	b := &bench{wl: wl, seed: seed, seconds: seconds, traced: traced, res: results{}, begun: time.Now()}
	if first {
		b.begun = processStart
	}
	return b
}

// tally counts operations: attempted, failed in any way (refused,
// evicted, errored, wrong), wrong among those, and the first failure.
type tally struct {
	attempted, failed, wrong int
	firstErr                 error
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.wrong += o.wrong
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

func main() {
	if wire.HostMode() {
		go exitWithParent()
		os.Exit(wire.RunHostFromEnv())
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// exitWithParent ends a daemon whose benchmark process is gone: a
// benchmark killed with SIGKILL runs no clean-up, and an orphaned
// daemon would hold its port and its CPU against the next run.
func exitWithParent() {
	parent := os.Getppid()
	for os.Getppid() == parent {
		time.Sleep(200 * time.Millisecond)
	}
	os.Exit(3)
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("navpbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "seed of the job inputs, the Poisson schedule and the kill schedule")
	seconds := fs.Float64("seconds", 20, "how long each half measures")
	traceMode := fs.String("trace", "both", "0: untraced end-to-end half, 1: traced per-layer half, both: one after the other")
	traceOut := fs.String("trace-out", "", "write the traced half's spans to this file as Perfetto JSON")
	list := fs.Bool("list", false, "print the workload and metric names and exit")
	check := fs.Bool("check", false, "run the workload's end-to-end half twice and fail if a metric moves by more than its bound")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		printList(stdout)
		return 0
	}
	wl := findWorkload(*workload)
	if wl == nil {
		fmt.Fprintf(stderr, "navpbench: unknown workload %q (see -list)\n", *workload)
		return 2
	}
	var halves []bool
	switch *traceMode {
	case "0":
		halves = []bool{false}
	case "1":
		halves = []bool{true}
	case "both":
		halves = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "navpbench: -trace takes 0, 1 or both, not %q\n", *traceMode)
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(stderr, "navpbench: -seconds must be positive")
		return 2
	}

	// Clean-up on the ways out that skip deferred calls.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		sig := <-sigs
		fmt.Fprintf(stderr, "navpbench: %v: killing daemons and removing state directories\n", sig)
		killEverything()
		os.Exit(130)
	}()

	printHeader(stdout, wl, *seed)
	if *check {
		return runCheck(wl, *seed, *seconds, stdout, stderr)
	}
	total := &bench{wl: wl, res: results{}}
	for i, traced := range halves {
		b := newBench(wl, *seed, *seconds, traced, i == 0)
		b.traceOut = *traceOut
		if err := runHalf(b, deadlineFor(*seconds), stderr); err != nil {
			fmt.Fprintf(stderr, "navpbench: %s: %v\n", wl.Name, err)
			return 1
		}
		printHalf(stdout, b)
		for name, v := range b.res {
			total.res[name] = v
		}
		total.add(b.tally)
		if len(b.spans) > 0 && *traceOut != "" {
			if err := writeFile(*traceOut, func(w io.Writer) error { return writeSpansPerfetto(w, b.spans) }); err != nil {
				fmt.Fprintf(stderr, "navpbench: %v\n", err)
				return 1
			}
		}
	}
	if total.failed > 0 {
		fmt.Fprintf(stdout, "FAILED operations: %d of %d (%d wrong results); first: %v\n",
			total.failed, total.attempted, total.wrong, total.firstErr)
	}
	// The result line carries the failure counts; the exit status says
	// only that the run completed and reported.
	printJSON(stdout, total, halves)
	return 0
}

// deadlineFor is the hard limit on one half: three times its measuring
// time plus set-up allowance, never past the 180 s the benchmark
// contract gives a run.
func deadlineFor(seconds float64) time.Duration {
	d := time.Duration((3*seconds + 45) * float64(time.Second))
	if d > 170*time.Second {
		d = 170 * time.Second
	}
	return d
}

// errDeadline reports a half that did not finish in time.
var errDeadline = errors.New("DEADLINE")

// runHalf runs one half under a hard deadline. The workload runs on its
// own goroutine so that a panic in it, like the deadline, goes through
// the daemon clean-up before the process ends; after a deadline the
// abandoned workload is told to stop and its daemons are killed until
// it has.
func runHalf(b *bench, deadline time.Duration, stderr io.Writer) error {
	done := make(chan error, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				killEverything()
				fmt.Fprintf(stderr, "navpbench: %s: panic: %v\n%s", b.wl.Name, p, debug.Stack())
				os.Exit(4)
			}
		}()
		done <- b.wl.run(b)
	}()
	select {
	case err := <-done:
		if err != nil {
			return err
		}
		return b.res.check()
	case <-time.After(deadline):
	}
	// Kill, and keep killing while the abandoned workload winds down: it
	// may have been between two set-ups, about to spawn more daemons.
	b.abandoned.Store(true)
	grace := time.After(2 * time.Second)
	for wound := false; !wound; {
		killEverything()
		select {
		case <-done:
			killEverything()
			wound = true
		case <-grace:
			wound = true
		case <-time.After(100 * time.Millisecond):
		}
	}
	return fmt.Errorf("%w: still running after %v; daemons killed, state directories removed", errDeadline, deadline)
}

// writeFile creates path, lets write fill it, and reports the first
// error of the three steps.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("write %s: %w", path, werr)
	}
	return nil
}

// printHeader records what produced the numbers.
func printHeader(w io.Writer, wl *workloadDef, seed int64) {
	commit := "unknown (not built inside a git checkout)"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	mc, kc, nc, source := matrix.ActiveBlocking()
	fmt.Fprintf(w, "navpbench workload=%s seed=%d\n", wl.Name, seed)
	fmt.Fprintf(w, "  commit     %s\n", commit)
	fmt.Fprintf(w, "  go         %s %s/%s\n", runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Fprintf(w, "  cpus       NumCPU=%d GOMAXPROCS=%d\n", runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  cpu model  %s\n", matrix.CPUModel())
	fmt.Fprintf(w, "  kernel     %s, blocking mc=%d kc=%d nc=%d (%s)\n", matrix.ActiveKernel(), mc, kc, nc, source)
	fmt.Fprintf(w, "  why        %s\n", wl.Why)
}

// printHalf prints the half's metrics in table order: name, value,
// unit, sample count, note.
func printHalf(w io.Writer, b *bench) {
	defs, title := endToEnd, "end-to-end (untraced)"
	if b.traced {
		defs, title = perLayer, "per-layer (traced run)"
	}
	fmt.Fprintf(w, "%s: %d operations attempted, %d failed\n", title, b.attempted, b.failed)
	for i, m := range defs {
		v, ok := b.res[m.Name]
		if !ok {
			fmt.Fprintf(w, "  %-34s %14s %-8s\n", m.Name, "n/a", m.Unit)
			continue
		}
		note := v.Note
		if !b.traced && i > 0 {
			note = joinNote(b.wl.Roles[i-1], note)
		}
		count := "computed"
		if v.N > 0 {
			count = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(w, "  %-34s %14.4f %-8s %-10s %s\n", m.Name, v.V, m.Unit, count, note)
	}
}

func joinNote(a, b string) string {
	if b == "" {
		return a
	}
	return a + "; " + b
}

// printJSON writes the result line the benchmark contract asks for:
// every metric of the halves that ran, a metric the workload does not
// define as 0.
func printJSON(w io.Writer, b *bench, halves []bool) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: b.wrong == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}}
	for _, traced := range halves {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, m := range defs {
			out.Metrics[m.Name] = metric{Value: b.res[m.Name].V, Unit: m.Unit}
		}
	}
	line, err := json.Marshal(out)
	if err != nil {
		panic(err) // plain numbers and strings always marshal
	}
	fmt.Fprintf(w, "%s\n", line)
}
