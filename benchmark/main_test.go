package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/wire"
)

// asMainEnv makes a re-executed copy of the test binary behave as
// navpbench itself, for the tests that signal the whole program.
const asMainEnv = "NAVPBENCH_TEST_AS_MAIN"

// TestMain routes re-executed copies of the test binary: daemons that
// wire.SpawnHost starts become hosts, and the signal test's child
// becomes the benchmark.
func TestMain(m *testing.M) {
	if wire.HostMode() {
		go exitWithParent()
		os.Exit(wire.RunHostFromEnv())
	}
	if os.Getenv(asMainEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// inTempDir runs the rest of the test in an empty directory, where the
// daemons' state directories then go.
func inTempDir(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
	return dir
}

// nothingLeft fails the test if a daemon of this process is still alive
// or a state directory still exists under dir.
func nothingLeft(t *testing.T, dir string) {
	t.Helper()
	if u, found := childUsage(); found {
		t.Errorf("child processes still alive after the run (cpu so far %v)", u.cpu)
	}
	left, _ := filepath.Glob(filepath.Join(dir, scratchRoot, "run-*"))
	if len(left) > 0 {
		t.Errorf("state directories left behind: %v", left)
	}
}

// resultLine parses the last line of a run's standard output.
func resultLine(t *testing.T, out string) (correct bool, attempted, failed int, metrics map[string]float64) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	metrics = map[string]float64{}
	for name, m := range res.Metrics {
		metrics[name] = m.Value
	}
	return res.Correct, res.Attempted, res.Failed, metrics
}

// The multi-process smoke test: one daemon process, both halves, a
// second of measuring each. It checks the result line against the
// tables, the breakdown's arithmetic, and that nothing is left running.
func TestSmokeServeP1(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dir := inTempDir(t)
	traceFile := filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "serve-p1", "-seed", "5", "-seconds", "2", "-trace-out", traceFile}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	correct, attempted, failed, metrics := resultLine(t, stdout.String())
	if !correct || failed != 0 || attempted < 10 {
		t.Fatalf("correct=%v attempted=%d failed=%d\n%s", correct, attempted, failed, stderr.String())
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if _, ok := metrics[m.Name]; !ok {
			t.Errorf("result line lacks %s", m.Name)
		}
		if !strings.Contains(stdout.String(), "  "+m.Name+" ") {
			t.Errorf("table lacks %s", m.Name)
		}
	}
	if len(metrics) != len(endToEnd)+len(perLayer) {
		t.Errorf("result line has %d metrics, the tables %d", len(metrics), len(endToEnd)+len(perLayer))
	}
	for _, m := range endToEnd {
		if !(metrics[m.Name] > 0) {
			t.Errorf("%s = %v, must be positive", m.Name, metrics[m.Name])
		}
	}
	shares := 0.0
	for _, name := range []string{"wire.inject_share", "wire.waitjob_share", "wire.getvar_share", "wire.setvar_share", "wire.cleanup_share", "sched.self_share"} {
		shares += metrics[name]
	}
	if math.Abs(shares-1) > 0.02 {
		t.Errorf("the solo shares sum to %v", shares)
	}
	if metrics["wire.ctl_calls_per_job"] != 36 || metrics["wire.hops_per_job"] != 0 {
		t.Errorf("a job on one daemon made %v Backend calls and %v hops, want 36 and 0",
			metrics["wire.ctl_calls_per_job"], metrics["wire.hops_per_job"])
	}
	if data, err := os.ReadFile(traceFile); err != nil || !json.Valid(data) {
		t.Errorf("-trace-out wrote no valid JSON: %v", err)
	}
	nothingLeft(t, dir)
}

// Kills: a job in flight when its daemon is killed -9 and respawned
// must still finish, verified, and count as hit.
func TestSmokeKillAndRespawn(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dir := inTempDir(t)
	b := newBench(findWorkload("serve-kill"), 11, 4, false, false)
	sv, err := startServer(b, serveSpec{daemons: 2, kills: true}, false)
	if err != nil {
		t.Fatal(err)
	}
	k := sv.startKiller(time.Second, 4*time.Second)
	l := sv.closedLoop(2, 4*time.Second)
	if err := k.stop(); err != nil {
		t.Fatal(err)
	}
	sv.close()
	if l.failed != 0 || len(l.jobs) == 0 {
		t.Fatalf("%d of %d jobs failed under kills; first: %v", l.failed, l.attempted, l.firstErr)
	}
	if len(k.instants) != 3 || len(k.respawnMS) != 3 {
		t.Fatalf("%d kills and %d respawns, want 3 of each", len(k.instants), len(k.respawnMS))
	}
	hit, unhit := splitByKills(l.jobs, k.instants)
	if len(hit) == 0 || len(unhit) == 0 {
		t.Fatalf("%d jobs hit and %d not", len(hit), len(unhit))
	}
	if median(hit) < ms(deadWindow) {
		t.Errorf("hit jobs took %v ms at the median, less than the %v the daemon stayed dead", median(hit), deadWindow)
	}
	nothingLeft(t, dir)
}

// A half that overruns its deadline ends with a named error, its
// daemons dead and its state directories gone.
func TestDeadlineCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dir := inTempDir(t)
	var stderr bytes.Buffer
	b := newBench(findWorkload("serve-p1"), 1, 30, false, false)
	err := runHalf(b, 1500*time.Millisecond, &stderr)
	if !errors.Is(err, errDeadline) {
		t.Fatalf("runHalf returned %v, want the deadline error", err)
	}
	nothingLeft(t, dir)
}

// SIGINT to the whole program: it must exit promptly, take its daemons
// with it and remove their state directories.
func TestInterruptCleansUp(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemon processes")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-workload", "serve-p4", "-seconds", "30", "-trace", "0")
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), asMainEnv+"=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// Wait for the four daemons, let jobs get into flight, then interrupt.
	deadline := time.Now().Add(20 * time.Second)
	for len(daemonsUnder(dir)) < 4 {
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("the daemons never appeared\n%s", stderr.String())
		}
		time.Sleep(50 * time.Millisecond)
	}
	time.Sleep(500 * time.Millisecond)
	cmd.Process.Signal(syscall.SIGINT)
	err := cmd.Wait()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Errorf("exit: %v, want status 130\n%s", err, stderr.String())
	}
	if left := daemonsUnder(dir); len(left) > 0 {
		t.Errorf("daemons survived the interrupt: pids %v", left)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, scratchRoot, "run-*")); len(left) > 0 {
		t.Errorf("state directories left behind: %v", left)
	}
}

// daemonsUnder lists the processes whose environment names a state
// directory under dir — the daemons of a benchmark running there,
// whoever their parent is by now.
func daemonsUnder(dir string) []string {
	var pids []string
	entries, _ := os.ReadDir("/proc")
	for _, e := range entries {
		env, err := os.ReadFile(filepath.Join("/proc", e.Name(), "environ"))
		if err == nil && bytes.Contains(env, []byte("NAVP_HOST_STATE="+dir)) {
			pids = append(pids, e.Name())
		}
	}
	return pids
}

func TestUnknownWorkloadAndFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "nope"}, &stdout, &stderr); code != 2 || !strings.Contains(stderr.String(), "nope") {
		t.Errorf("unknown workload: exit %d, stderr %q", code, stderr.String())
	}
	if code := run([]string{"-workload", "serve-p1", "-trace", "2"}, &stdout, &stderr); code != 2 {
		t.Errorf("-trace 2: exit %d", code)
	}
	if code := run([]string{"-workload", "serve-p1", "-seconds", "0"}, &stdout, &stderr); code != 2 {
		t.Errorf("-seconds 0: exit %d", code)
	}
	if stdout.Len() != 0 {
		t.Errorf("a refused command line printed %q", stdout.String())
	}
}
