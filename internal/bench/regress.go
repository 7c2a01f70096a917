package bench

// The BENCH_*.json regression harness: real measured microbenchmarks of
// the fast data paths (the packed GEMM kernel, the wire frame codec, the
// goroutine NavP runtime), rendered as machine-readable JSON so CI and
// later runs can diff performance against the recorded numbers at the
// repo root.
//
// All wall-clock timing happens inside testing.Benchmark — this file
// itself stays simsafe (no direct clock reads), and the measurements
// are explicitly host-dependent: the files record Go version, OS/arch,
// and GOMAXPROCS alongside every number.

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/gentleman"
	"repro/internal/matmul"
	"repro/internal/matrix"
	"repro/internal/navp"
	"repro/internal/sim"
	"repro/internal/wire"
)

// RegressResult is one benchmark measurement.
type RegressResult struct {
	// Name matches the corresponding go-test benchmark, e.g.
	// "BenchmarkKernelMul/n=1024", so `go test -bench` output and the
	// JSON file line up.
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	GFlops      float64 `json:"gflops,omitempty"`
	MBPerSec    float64 `json:"mb_per_s,omitempty"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// RegressFile is the schema of BENCH_kernels.json, BENCH_wire.json and
// BENCH_navp.json.
// Schema 2 adds the host identity block (CPU model, ISA features,
// NumCPU) and the kernel dispatch state (active variant and its
// blocking parameters), so a recorded number can always be traced to
// the hardware and kernel that produced it.
type RegressFile struct {
	Schema      int             `json:"schema"`
	Suite       string          `json:"suite"`
	GoVersion   string          `json:"go_version"`
	GOOS        string          `json:"goos"`
	GOARCH      string          `json:"goarch"`
	GOMAXPROCS  int             `json:"gomaxprocs"`
	NumCPU      int             `json:"num_cpu"`
	CPUModel    string          `json:"cpu_model"`
	CPUFeatures []string        `json:"cpu_features,omitempty"`
	Kernel      string          `json:"kernel,omitempty"`
	BlockMC     int             `json:"block_mc,omitempty"`
	BlockKC     int             `json:"block_kc,omitempty"`
	BlockNC     int             `json:"block_nc,omitempty"`
	Quick       bool            `json:"quick"`
	Results     []RegressResult `json:"results"`
}

func newRegressFile(suite string, quick bool) *RegressFile {
	f := &RegressFile{
		Schema: 2, Suite: suite,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		CPUModel: matrix.CPUModel(), CPUFeatures: matrix.CPUFeatures(),
		Quick: quick,
	}
	if suite == "kernels" {
		f.Kernel = matrix.ActiveKernel()
		f.BlockMC, f.BlockKC, f.BlockNC, _ = matrix.ActiveBlocking()
	}
	return f
}

// sinkDense defeats dead-code elimination of benchmark results.
var sinkDense *matrix.Dense

// benchmarked runs body under testing.Benchmark and fills the common
// counters. ns/op keeps its fraction: testing's NsPerOp truncates to
// whole nanoseconds, a tenth of an 11 ns row.
func benchmarked(name string, body func(b *testing.B)) RegressResult {
	r := testing.Benchmark(body)
	var ns float64
	if r.N > 0 {
		ns = float64(r.T.Nanoseconds()) / float64(r.N)
	}
	return RegressResult{
		Name:        name,
		NsPerOp:     ns,
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// alternated measures each row in turn, rounds times over, and returns
// each row's median round, in row order: drift on a shared host then
// moves every row of a ratio alike. A measure that fails ends the
// rounds.
func alternated(rounds int, measure ...func() (RegressResult, error)) ([]RegressResult, error) {
	all := make([][]RegressResult, len(measure))
	for round := 0; round < rounds; round++ {
		for i, m := range measure {
			res, err := m()
			if err != nil {
				return nil, err
			}
			all[i] = append(all[i], res)
		}
	}
	medians := make([]RegressResult, len(measure))
	for i, rs := range all {
		sort.Slice(rs, func(a, b int) bool { return rs[a].NsPerOp < rs[b].NsPerOp })
		medians[i] = rs[len(rs)/2]
	}
	return medians, nil
}

func withGflops(res RegressResult, n int) RegressResult {
	flops := 2 * float64(n) * float64(n) * float64(n)
	if res.NsPerOp > 0 {
		res.GFlops = flops / res.NsPerOp
	}
	return res
}

func withMBPerSec(res RegressResult, bytes int) RegressResult {
	if res.NsPerOp > 0 {
		res.MBPerSec = float64(bytes) / res.NsPerOp * 1e9 / 1e6
	}
	return res
}

// regressThreadCounts is the measured thread curve: 1, 2, 4 always
// (the gated points), then powers of two up to NumCPU and NumCPU
// itself, so the file records the full scaling curve this host can
// express. Points beyond NumCPU still run — they measure scheduling
// overhead, and the gate holds them to a bounded cost rather than a
// speedup.
func regressThreadCounts() []int {
	ts := []int{1, 2, 4}
	for p := 8; p <= runtime.NumCPU(); p *= 2 {
		ts = append(ts, p)
	}
	if n := runtime.NumCPU(); n > 4 && ts[len(ts)-1] != n {
		ts = append(ts, n)
	}
	return ts
}

// regressPair returns a deterministic n×n multiplicand pair (same seed
// as the go-test benchmarks).
func regressPair(n int) (x, y *matrix.Dense) {
	rng := rand.New(rand.NewSource(2))
	x, y = matrix.NewDense(n, n), matrix.NewDense(n, n)
	x.FillRandom(rng)
	y.FillRandom(rng)
	return x, y
}

// RegressKernels measures the GEMM data path: the paper's Figure 2
// i-j-k baseline, the i-k-j saxpy intermediate, the packed kernel, the
// worker-pool variants, and the Block MulAdd hot path at a large block
// and at paper-fine's BS=16. Quick mode
// shrinks the problem sizes for CI smoke runs; full mode includes the
// gated n=1024 pair.
func RegressKernels(quick bool) *RegressFile {
	f := newRegressFile("kernels", quick)
	sizes := []int{256, 512, 1024}
	if quick {
		sizes = []int{64, 128}
	}
	type mulCase struct {
		name string
		mul  func(a, b *matrix.Dense) *matrix.Dense
	}
	for _, c := range []mulCase{
		{"BenchmarkNaiveMul", matrix.MulNaive},
		{"BenchmarkSaxpyMul", matrix.MulSaxpy},
		{"BenchmarkKernelMul", func(a, b *matrix.Dense) *matrix.Dense { return matrix.Kernel{}.Mul(a, b) }},
	} {
		for _, n := range sizes {
			x, y := regressPair(n)
			res := benchmarked(fmt.Sprintf("%s/n=%d", c.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkDense = c.mul(x, y)
				}
			})
			f.Results = append(f.Results, withGflops(res, n))
		}
	}
	threadN := 1024
	threads := regressThreadCounts()
	if quick {
		threadN, threads = 128, []int{1, 2}
	}
	for _, t := range threads {
		t := t
		x, y := regressPair(threadN)
		res := benchmarked(fmt.Sprintf("BenchmarkKernelMulThreads/t=%d", t), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkDense = matrix.Kernel{Threads: t}.Mul(x, y)
			}
		})
		f.Results = append(f.Results, withGflops(res, threadN))
	}
	// bs=16 is paper-fine's block, measured in both modes because its
	// gate is relative to this file's own KernelMul rate.
	large := 128
	if quick {
		large = 64
	}
	for _, bs := range []int{large, 16} {
		rng := rand.New(rand.NewSource(1))
		ab, bb, cb := matrix.NewBlock(0, 0, bs, bs), matrix.NewBlock(0, 1, bs, bs), matrix.NewBlock(0, 0, bs, bs)
		for i := range ab.Data {
			ab.Data[i], bb.Data[i] = rng.Float64(), rng.Float64()
		}
		res := benchmarked(fmt.Sprintf("BenchmarkBlockMulAdd/bs=%d", bs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matrix.MulAdd(cb, ab, bb)
			}
		})
		f.Results = append(f.Results, withGflops(res, bs))
	}
	return f
}

// regressBlockState is the data-path payload the wire codec suite
// ships: a carried matrix block plus bookkeeping, like the distributed
// matmul agents.
type regressBlockState struct {
	Row int
	Blk *matrix.Block
}

// regressSmallState mirrors control-plane traffic.
type regressSmallState struct{ Remaining int }

func init() {
	wire.RegisterState(&regressBlockState{})
	wire.RegisterState(&regressSmallState{})
}

func regressBlockStateN(n int) *regressBlockState {
	blk := matrix.NewBlock(0, 0, n, n)
	for i := range blk.Data {
		blk.Data[i] = float64(i%7) + 0.5
	}
	return &regressBlockState{Row: 3, Blk: blk}
}

// RegressWire measures the wire data path: frame encode (the pooled
// zero-copy fast path), frame decode, and the hop-boundary checkpoint
// snapshot, over a control-size state and block-carrying states; then
// the persist-before-acknowledge sync against resident state size and
// the coordinator's control round trip, lone and overlapped.
func RegressWire(quick bool) (*RegressFile, error) {
	f := newRegressFile("wire", quick)
	cases := []struct {
		name  string
		state any
	}{
		{"small", &regressSmallState{Remaining: 12}},
		{"block=64", regressBlockStateN(64)},
		{"block=256", regressBlockStateN(256)},
	}
	if quick {
		cases = cases[:2]
	}
	for _, c := range cases {
		c := c
		size, err := wire.BenchEncodeFrame(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: encode %s: %w", c.name, err)
		}
		res := benchmarked("BenchmarkEncodeFrame/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.BenchEncodeFrame(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, size))

		data, err := wire.BenchFrameBytes(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: frame bytes %s: %w", c.name, err)
		}
		res = benchmarked("BenchmarkDecodeFrame/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := wire.BenchDecodeFrame(data); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, len(data)))

		snap, err := wire.BenchEncodeState(c.state)
		if err != nil {
			return nil, fmt.Errorf("bench: state %s: %w", c.name, err)
		}
		res = benchmarked("BenchmarkCheckpointState/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := wire.BenchEncodeState(c.state); err != nil {
					b.Fatal(err)
				}
			}
		})
		f.Results = append(f.Results, withMBPerSec(res, snap))
	}

	// The durability layer: one sync of an 8-byte change on a
	// plateau-shaped node, bare and beside 4 MiB of resident state. Both
	// run in quick mode too — the pair is what the wire gates read.
	for _, c := range []struct {
		name    string
		ballast int
	}{{"plateau", 0}, {"ballast=4MiB", 4 << 20}} {
		dir, err := os.MkdirTemp("", "navp-benchsync-")
		if err != nil {
			return nil, fmt.Errorf("bench: sync %s: %w", c.name, err)
		}
		step, closeNode, err := wire.BenchSyncNode(dir, c.ballast)
		if err != nil {
			os.RemoveAll(dir)
			return nil, fmt.Errorf("bench: sync %s: %w", c.name, err)
		}
		res := benchmarked("BenchmarkSync/"+c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := step(); err != nil {
					b.Fatal(err)
				}
			}
		})
		closeNode()
		os.RemoveAll(dir)
		f.Results = append(f.Results, res)
	}

	// The control plane: one GetVar round trip on a client's pipelined
	// connection to an in-process host, callers taking turns and sixteen
	// at once (per call). The other pair the wire gates read, so the two
	// alternate over three rounds, each on a fresh cluster.
	roundTrip := func(name string, callers int) func() (RegressResult, error) {
		return func() (RegressResult, error) {
			run, closeCluster, err := wire.BenchControlRoundTrip()
			if err != nil {
				return RegressResult{}, fmt.Errorf("bench: control round trip %s: %w", name, err)
			}
			defer closeCluster()
			return benchmarked("BenchmarkControlRoundTrip/"+name, func(b *testing.B) {
				if err := run(callers, b.N); err != nil {
					b.Fatal(err)
				}
			}), nil
		}
	}
	ctl, err := alternated(3, roundTrip("serial", 1), roundTrip("burst=16", 16))
	if err != nil {
		return nil, err
	}
	f.Results = append(f.Results, ctl...)
	return f, nil
}

// RegressNavp measures the two executors of NavP programs. First the
// simulation kernel (internal/sim): a process switch and an event
// signal/wait pair. Then the goroutine runtime (navp.NewReal): a
// cross-PE hop, a same-PE event round trip, signal/wait pairs fanned
// over 32 768 events, and a same-PE hop, signal and wait of one agent
// per PE at one and two PEs (alternated; the navp gate reads their
// ratio), then whole solves on it: in full runs
// paper-coarse's Phase1D, which is sensitive to the run loop's queue
// order, and always paper-fine's Phase2D beside its Sequential twin (the
// ratio the navp gate reads) and Gentleman's Algorithm on the goroutine
// mp backend (the paper's MPI baseline; PrintRatios reports the ratio,
// ungated). The rows carry the names of the go-test benchmarks in
// internal/sim, internal/navp, internal/matmul and internal/gentleman.
func RegressNavp(quick bool) (*RegressFile, error) {
	f := newRegressFile("navp", quick)
	for _, c := range []struct {
		name string
		run  func(n int) error
	}{
		{"BenchmarkProcessSwitch", sim.BenchProcessSwitch},
		{"BenchmarkEventSignalWait", sim.BenchEventSignalWait},
		{"BenchmarkHopReal", navp.BenchHops},
		{"BenchmarkEventRoundTripReal", navp.BenchEventRoundTrips},
		{"BenchmarkEventFanReal", navp.BenchEventFan},
	} {
		f.Results = append(f.Results, benchmarked(c.name, func(b *testing.B) {
			if err := c.run(b.N); err != nil {
				b.Fatal(err)
			}
		}))
	}
	// measure times runs of body as the row name.
	measure := func(name string, body func(n int) error) func() (RegressResult, error) {
		return func() (RegressResult, error) {
			var err error
			res := benchmarked(name, func(b *testing.B) {
				if err == nil {
					err = body(b.N)
				}
			})
			if err != nil {
				return res, fmt.Errorf("bench: %s: %w", name, err)
			}
			return res, nil
		}
	}
	localOps := func(pes int) func() (RegressResult, error) {
		return measure(fmt.Sprintf("BenchmarkLocalOpsReal/pes=%d", pes),
			func(n int) error { return navp.BenchLocalOps(pes, n) })
	}
	local, err := alternated(3, localOps(1), localOps(2))
	if err != nil {
		return nil, err
	}
	f.Results = append(f.Results, local...)
	solve := func(stage matmul.Stage, cfg matmul.Config) func(n int) error {
		return func(n int) error {
			for i := 0; i < n; i++ {
				if _, err := matmul.Run(stage, cfg); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if !quick {
		coarse := matmul.Config{N: 1536, BS: 256, P: 2, Real: true, Seed: 1}
		res, err := measure("BenchmarkPhase1DCoarse", solve(matmul.Phase1D, coarse))()
		if err != nil {
			return nil, err
		}
		f.Results = append(f.Results, res)
	}
	// The compared rows alternate over three rounds and each keeps its
	// median round, so drift on a shared host moves them alike.
	fine := matmul.Config{N: 512, BS: 16, P: 2, Real: true, Seed: 1}
	solves, err := alternated(3,
		measure("BenchmarkPhase2DFine", solve(matmul.Phase2D, fine)),
		measure("BenchmarkSequentialFine", solve(matmul.Sequential, fine)),
		measure("BenchmarkGentlemanFine", gentleman.BenchFine))
	if err != nil {
		return nil, err
	}
	f.Results = append(f.Results, solves...)
	return f, nil
}

// fineRatios are the ratios of paper-fine rows PrintRatios reports: the
// gated NavP-over-sequential one and the ungated NavP-over-MPI one.
var fineRatios = [][2]string{
	{"BenchmarkPhase2DFine", "BenchmarkSequentialFine"},
	{"BenchmarkPhase2DFine", "BenchmarkGentlemanFine"},
}

// PrintRatios writes one line per ratio of recorded rows the navp file
// compares, e.g. "Phase2DFine / GentlemanFine: 2.01".
func (f *RegressFile) PrintRatios(w io.Writer) {
	for _, r := range fineRatios {
		num, den := f.Find(r[0]), f.Find(r[1])
		if num == nil || den == nil || den.NsPerOp <= 0 {
			continue
		}
		fmt.Fprintf(w, "%s / %s: %.2f\n", strings.TrimPrefix(r[0], "Benchmark"),
			strings.TrimPrefix(r[1], "Benchmark"), num.NsPerOp/den.NsPerOp)
	}
}

// Find returns the named result, or nil.
func (f *RegressFile) Find(name string) *RegressResult {
	for i := range f.Results {
		if f.Results[i].Name == name {
			return &f.Results[i]
		}
	}
	return nil
}

// KernelSpeedup reports the packed kernel's GFLOP/s ratio over the
// recorded naive baseline at the largest measured size — the number the
// regression gate watches (the issue's acceptance floor is 3×).
func (f *RegressFile) KernelSpeedup() (size int, ratio float64, err error) {
	for _, n := range []int{1024, 512, 256, 128, 64} {
		kernel := f.Find(fmt.Sprintf("BenchmarkKernelMul/n=%d", n))
		naive := f.Find(fmt.Sprintf("BenchmarkNaiveMul/n=%d", n))
		if kernel == nil || naive == nil || naive.GFlops == 0 {
			continue
		}
		return n, kernel.GFlops / naive.GFlops, nil
	}
	return 0, 0, fmt.Errorf("bench: no kernel/naive pair in %s suite", f.Suite)
}
