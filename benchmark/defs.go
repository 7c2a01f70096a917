package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// metricDef names one metric of the benchmark. The tables below are the
// source of truth; BENCHMARK.json mirrors them (a unit test holds the
// two equal) and -list prints them.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a change may lose
	Help   string
}

// The end-to-end metrics. The benchmark contract wants every one of
// them from every workload, so each is a role that both kinds of user
// have — the client of navpserve and the reader following the paper's
// progression — and workloadDef.Roles says what fills the role on each
// workload. failed_ratio is not a metric here: a run reports attempted
// and failed counts beside the metrics, and any failure fails the run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"process start to first timed operation: spawn and join daemons, dial, scheduler up, warm-up jobs / one warm-up cycle, input generation; median of the run's set-ups"},
	{"solo_p50_ms", "ms", "lower", 0.20,
		"median time-to-result of one unit of work at a time: a job with 1 closed-loop client (serve), the Sequential program on 1 PE (paper)"},
	{"duo_p50_ms", "ms", "lower", 0.20,
		"median time-to-result at parallelism 2: a job with 2 closed-loop clients (serve, under kills on serve-kill), Phase1D on 2 PEs (paper)"},
	{"stress_ms", "ms", "lower", 0.25,
		"time-to-result where coordination is stressed most: p90 job latency with 2 clients (serve-p1, serve-p4), mean over the jobs whose lifetime contains a kill -9 (serve-kill), p50 of Phase2D on 2x2 PEs (paper)"},
}

// The per-layer metrics: a layer is a package under internal/. A metric
// a workload does not define is printed as n/a and sent as 0.
var perLayer = []metricDef{
	// wire: control plane, measured by spans around sched.Backend calls.
	{"wire.inject_p50_ms", "ms", "lower", 0, "median duration of one Backend.InjectJob call"},
	{"wire.inject_per_job", "count", "lower", 0, "InjectJob calls per job"},
	{"wire.inject_share", "ratio", "lower", 0, "share of traced solo job time inside InjectJob"},
	{"wire.waitjob_p50_ms", "ms", "lower", 0, "median duration of WaitJob: carrier travel plus detection lag"},
	{"wire.waitjob_share", "ratio", "lower", 0, "share of traced solo job time inside WaitJob"},
	{"wire.getvar_p50_ms", "ms", "lower", 0, "median duration of one GetVar call"},
	{"wire.getvar_per_job", "count", "lower", 0, "GetVar calls per job"},
	{"wire.getvar_share", "ratio", "lower", 0, "share of traced solo job time inside GetVar"},
	{"wire.setvar_p50_ms", "ms", "lower", 0, "median duration of one SetVar call"},
	{"wire.setvar_per_job", "count", "lower", 0, "SetVar calls per job"},
	{"wire.setvar_share", "ratio", "lower", 0, "share of traced solo job time inside SetVar"},
	{"wire.release_p50_ms", "ms", "lower", 0, "median duration of ReleaseJob"},
	{"wire.clearvars_p50_ms", "ms", "lower", 0, "median duration of ClearVarsPrefix"},
	{"wire.cleanup_share", "ratio", "lower", 0, "share of traced solo job time inside ReleaseJob, ClearVarsPrefix and CancelJob"},
	{"wire.ctl_calls_per_job", "count", "lower", 0, "Backend calls per job"},
	{"wire.hops_per_job", "count", "lower", 0, "inter-daemon hops per job, counted from the carrier rings handed to InjectJob"},
	{"wire.hop_p50_us", "us", "lower", 0, "(T(256 ring hops) - T(0 hops)) / 256 with a 4-int agent state"},
	{"wire.hop_block_p50_us", "us", "lower", 0, "the same with a 64x64 matrix.Block in the state"},
	{"wire.detect_lag_p50_ms", "ms", "lower", 0, "no-hop agent: InjectJob return to WaitJob return"},
	{"wire.sync_small_p50_us", "us", "lower", 0, "SetVar of 8 bytes, node otherwise empty"},
	{"wire.sync_ballast_p50_us", "us", "lower", 0, "SetVar of 8 bytes, node holding a 4 MiB variable"},
	{"wire.sync_ballast_ratio", "ratio", "lower", 0, "sync_ballast / sync_small; a durability layer that writes what changed brings it to 1"},
	{"wire.frame_encode_ns", "ns", "lower", 0, "wire.BenchEncodeFrame on a carrier-shaped state"},
	{"wire.frame_decode_ns", "ns", "lower", 0, "wire.BenchDecodeFrame on the same frame"},
	{"wire.frame_decode_allocs", "count", "lower", 0, "heap allocations of one frame decode"},
	{"wire.state_encode_ns", "ns", "lower", 0, "wire.BenchEncodeState on the same state"},
	{"wire.state_decode_ns", "ns", "lower", 0, "wire.BenchDecodeState on its snapshot"},
	{"wire.respawn_p50_ms", "ms", "lower", 0, "duration of HostProc.Respawn: exec, snapshot reload, replay, announce"},
	{"wire.daemon_cpu_ms_per_job", "ms", "lower", 0, "daemon processes' CPU time per job over the traced duo phase (/proc/<pid>/stat)"},
	{"wire.write_bytes_per_job", "bytes", "lower", 0, "bytes the daemons passed to write(2) per job over the traced duo phase (/proc/<pid>/io wchar: state files and sockets)"},
	{"wire.statedir_bytes", "bytes", "lower", 0, "size of the daemons' state directories after the traced duo phase"},
	// sched: the front end.
	{"sched.dispatch_p50_ms", "ms", "lower", 0, "Submit to the job's first Backend call in the traced duo phase: queue wait, placement, operand build"},
	{"sched.self_share", "ratio", "lower", 0, "share of traced solo job time outside every Backend call"},
	{"sched.frontend_cpu_ms_per_job", "ms", "lower", 0, "this process's CPU time per job over the traced solo phase (getrusage)"},
	{"sched.duo_jobs_per_s", "1/s", "higher", 0, "verified jobs completed per second with 2 closed-loop clients"},
	{"sched.duo_scaling", "ratio", "higher", 0, "duo_jobs_per_s / (1000 / solo p50): 1 = the second client adds nothing, 2 = perfect"},
	{"sched.retries_per_job", "count", "lower", 0, "Status.Attempts - 1, mean over the phase's jobs"},
	{"sched.unhit_p50_ms", "ms", "lower", 0, "median latency of jobs no kill fell into (serve-kill)"},
	{"sched.hit_p50_ms", "ms", "lower", 0, "median latency of jobs a kill fell into: two-humped, so it flips between runs (serve-kill)"},
	{"sched.paced_p50_ms", "ms", "lower", 0, "open-loop Poisson phase: median latency from the due time"},
	{"sched.paced_p90_ms", "ms", "lower", 0, "open-loop Poisson phase: p90 latency from the due time"},
	{"sched.paced_late_ms", "ms", "lower", 0, "open-loop Poisson phase: mean generator lateness (submit - due)"},
	{"sched.paced_rejected", "count", "lower", 0, "open-loop Poisson phase: arrivals refused by admission"},
	// matrix: the kernel underneath.
	{"matrix.block_muladd_ns", "ns", "lower", 0, "matrix.MulAdd on BSxBS blocks, one goroutine"},
	{"matrix.block_gflops", "GFLOP/s", "higher", 0, "2*BS^3 / block_muladd_ns"},
	{"matrix.block_muladd_allocs", "count", "lower", 0, "heap allocations of one block MulAdd"},
	{"matrix.mul_full_ms", "ms", "lower", 0, "matrix.Mul on the same NxN inputs: the plain single-thread baseline"},
	{"matrix.mul_full_gflops", "GFLOP/s", "higher", 0, "2*N^3 / mul_full_ms"},
	{"matrix.kernel_ms_per_solve", "ms", "lower", 0, "computed: (N/BS)^3 x block_muladd_ns"},
	{"matrix.kernel_share_seq", "ratio", "higher", 0, "computed: kernel_ms_per_solve / Sequential p50"},
	// navp: the goroutine runtime.
	{"navp.hop_ns", "ns", "lower", 0, "probe: an empty agent circling P nodes"},
	{"navp.event_ns", "ns", "lower", 0, "probe: two agents ping-ponging SignalEvent/WaitEvent, per hand-off"},
	{"navp.inject_ns", "ns", "lower", 0, "probe: inject-and-finish"},
	{"navp.hops_per_solve.phase1d", "count", "lower", 0, "navp.hops after one Phase1D run"},
	{"navp.hops_per_solve.phase2d", "count", "lower", 0, "navp.hops after one Phase2D run"},
	{"navp.waits_per_solve.phase1d", "count", "lower", 0, "navp.waits after one Phase1D run"},
	{"navp.waits_per_solve.phase2d", "count", "lower", 0, "navp.waits after one Phase2D run"},
	{"navp.runtime_ms_per_solve.phase1d", "ms", "lower", 0, "computed: hops, waits and injects of one run x their probe costs"},
	{"navp.runtime_ms_per_solve.phase2d", "ms", "lower", 0, "computed: hops, waits and injects of one run x their probe costs"},
	{"navp.pe_busy_ratio.phase1d", "ratio", "higher", 0, "computed: kernel_ms_per_solve / (min(PEs, GOMAXPROCS) x Phase1D p50)"},
	{"navp.pe_busy_ratio.phase2d", "ratio", "higher", 0, "computed: kernel_ms_per_solve / (min(PEs, GOMAXPROCS) x Phase2D p50)"},
	{"navp.wait_share.phase1d", "ratio", "lower", 0, "computed: 1 - (kernel + runtime) / (min(PEs, GOMAXPROCS) x p50): PE time neither kernel nor counted runtime calls explain"},
	{"navp.wait_share.phase2d", "ratio", "lower", 0, "computed: 1 - (kernel + runtime) / (min(PEs, GOMAXPROCS) x p50): PE time neither kernel nor counted runtime calls explain"},
	// matmul: the paper's programs.
	{"matmul.dsc1d_p50_ms", "ms", "lower", 0, "median wall time of matmul.Run(DSC1D)"},
	{"matmul.pipe1d_p50_ms", "ms", "lower", 0, "median wall time of matmul.Run(Pipeline1D)"},
	{"matmul.speedup_dsc1d", "ratio", "higher", 0, "Sequential p50 / DSC1D p50"},
	{"matmul.speedup_pipe1d", "ratio", "higher", 0, "Sequential p50 / Pipeline1D p50"},
	{"matmul.speedup_phase1d", "ratio", "higher", 0, "Sequential p50 / Phase1D p50"},
	{"matmul.speedup_phase2d", "ratio", "higher", 0, "Sequential p50 / Phase2D p50"},
	{"matmul.inputs_ms", "ms", "lower", 0, "median wall time of matmul.Inputs"},
	{"matmul.serial_share", "ratio", "lower", 0, "computed: (Sequential p50 - kernel_ms_per_solve) / Sequential p50, the Amdahl cap"},
	{"matmul.alloc_mb_per_solve", "MB", "lower", 0, "runtime.MemStats.TotalAlloc delta over one Sequential run"},
	// tracing itself.
	{"trace.overhead_ratio", "ratio", "lower", 0, "traced p50 / untraced p50 of the same phase in the same run"},
}

// workloadDef is one workload: why it exists and what fills each
// end-to-end role on it.
type workloadDef struct {
	Name  string
	Why   string
	Roles [3]string // what solo_p50_ms, duo_p50_ms and stress_ms measure here
	run   func(*bench) error
}

var workloads = []workloadDef{
	{"serve-p1", "wirematmul N=16 on one daemon process: no inter-daemon hop, so only the control plane, persist-before-ack and the scheduler show",
		[3]string{"job latency, 1 client", "job latency, 2 clients", "p90 job latency, 2 clients"}, runServeP1},
	{"serve-p4", "the same jobs on four daemon processes: 48 hop frames, 64 GetVars and a 4-member WaitJob poll per job, where the curve collapses",
		[3]string{"job latency, 1 client", "job latency, 2 clients", "p90 job latency, 2 clients"}, runServeP4},
	{"serve-kill", "three daemons, the last one killed -9 and respawned every second: the persist layer used for recovery instead of write-per-ack",
		[3]string{"job latency, 1 client, no kills", "job latency, 2 clients, under kills", "mean latency of jobs a kill -9 fell into"}, runServeKill},
	{"paper-coarse", "the paper's progression on real cores at N=1536 BS=256 P=2: 216 block products of 33 Mflop, so nearly all time is the GEMM kernel",
		[3]string{"Sequential", "Phase1D, 2 PEs", "Phase2D, 2x2 PEs"}, runPaperCoarse},
	{"paper-fine", "the same at N=512 BS=16 P=2: 33k block products of 8 kflop, so agent hops, event hand-offs and per-call dispatch show",
		[3]string{"Sequential", "Phase1D, 2 PEs", "Phase2D, 2x2 PEs"}, runPaperFine},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// manifest is the part of BENCHMARK.json the benchmark itself reads.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []manifestMetric `json:"end_to_end"`
	PerLayer []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// loadManifest reads BENCHMARK.json from the working directory or the
// nearest parent that has one (the tests run inside benchmark/).
func loadManifest() (*manifest, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(data, &m); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &m, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// printList is -list: every workload and metric, one per line — what
// BENCHMARK.json says of it, then a tab and what it means.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintf(w, "workload %s\t%s\n", wl.Name, wl.Why)
	}
	for _, m := range endToEnd {
		fmt.Fprintf(w, "end_to_end %s %s %s %g\t%s\n", m.Name, m.Unit, m.Better, m.Bound, m.Help)
	}
	for _, m := range perLayer {
		fmt.Fprintf(w, "per_layer %s %s %s\t%s\n", m.Name, m.Unit, m.Better, m.Help)
	}
}

// value is one measured metric.
type value struct {
	V    float64
	N    int    // samples behind the value; 0 for a computed one
	Note string // printed beside it
}

// results collects what a run measured, by metric name.
type results map[string]value

// set stores a metric. A value that is not a number (a ratio over an
// empty phase) is stored as 0 and says so, since JSON cannot carry it.
func (r results) set(name string, v float64, n int, note string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v, note = 0, "undefined: "+note
	}
	r[name] = value{V: v, N: n, Note: note}
}

// check reports names no table defines: a typo in a workload would
// otherwise vanish from the output without a trace.
func (r results) check() error {
	known := map[string]bool{}
	for _, m := range endToEnd {
		known[m.Name] = true
	}
	for _, m := range perLayer {
		known[m.Name] = true
	}
	var unknown []string
	for name := range r {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		return fmt.Errorf("metrics outside the tables: %v", unknown)
	}
	return nil
}
