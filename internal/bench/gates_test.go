package bench

import (
	"strings"
	"testing"
)

// gateFile builds a synthetic kernels RegressFile for gate tests.
func gateFile(numCPU int, kernel string, results []RegressResult) *RegressFile {
	return &RegressFile{
		Schema: 2, Suite: "kernels", NumCPU: numCPU, Kernel: kernel,
		Results: results,
	}
}

func hasViolation(errs []error, substr string) bool {
	for _, e := range errs {
		if strings.Contains(e.Error(), substr) {
			return true
		}
	}
	return false
}

// TestGatesPassOnHealthyFile pins that a file meeting every floor is
// green: 3×+ kernel speedup, asm floor held, clean thread scaling.
func TestGatesPassOnHealthyFile(t *testing.T) {
	f := gateFile(8, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=2", GFlops: 52.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 95.0},
		{Name: "BenchmarkKernelMulThreads/t=8", GFlops: 150.0},
		{Name: "BenchmarkBlockMulAdd/bs=128", GFlops: 25.0},
		{Name: "BenchmarkBlockMulAdd/bs=16", GFlops: 14.0},
	})
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("healthy file violated gates: %v", errs)
	}
}

// TestGatesCatchRegressions pins each gate individually.
func TestGatesCatchRegressions(t *testing.T) {
	// Kernel barely faster than naive: speedup floor.
	f := gateFile(1, "go-4x4", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 4.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 4.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "below the 3.0x floor") {
		t.Fatalf("2x speedup passed the 3x gate: %v", errs)
	}

	// Asm dispatched but throughput under the absolute floor.
	f = gateFile(1, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 10.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 10.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "below the 22.2 floor") {
		t.Fatalf("10 GFLOP/s asm run passed the floor gate: %v", errs)
	}

	// The AVX-512 kernel has its own, higher floor: 25 GFLOP/s passes
	// the AVX2 floor but fails this one, 35 passes.
	f = gateFile(1, "avx512-8x16", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 25.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 25.0},
		{Name: "BenchmarkBlockMulAdd/bs=16", GFlops: 20.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "avx512-8x16 kernel at n=1024 is 25.00 GFLOP/s, below the 30.0 floor") {
		t.Fatalf("25 GFLOP/s avx512 run passed the floor gate: %v", errs)
	}
	f.Results[1].GFlops, f.Results[2].GFlops = 35.0, 35.0
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("35 GFLOP/s avx512 run failed the gates: %v", errs)
	}

	// A threaded point within NumCPU slower than t=1 must FAIL the run,
	// not merely be recorded.
	f = gateFile(8, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=2", GFlops: 20.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 95.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "may not be slower than single-threaded") {
		t.Fatalf("slower t=2 within NumCPU passed: %v", errs)
	}

	// t=4 under 2.5× on a host that can express it.
	f = gateFile(8, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 50.0},
	})
	if errs := f.CheckGates(); !hasViolation(errs, "below the 2.5x scaling floor") {
		t.Fatalf("1.8x t=4 passed the 2.5x gate on an 8-CPU host: %v", errs)
	}

	// Oversubscribed points (t > NumCPU) face the overhead bound, not
	// the scaling gate — 0.9x t=1 passes, 0.5x fails.
	f = gateFile(1, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=1024", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=1024", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 28.0},
		{Name: "BenchmarkKernelMulThreads/t=4", GFlops: 25.0},
		{Name: "BenchmarkBlockMulAdd/bs=16", GFlops: 14.0},
	})
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("0.9x oversubscribed point failed on a 1-CPU host: %v", errs)
	}
	f.Results[3].GFlops = 14.0
	if errs := f.CheckGates(); !hasViolation(errs, "overhead bound") {
		t.Fatalf("0.5x oversubscribed point passed the overhead bound: %v", errs)
	}
}

// TestGatesQuickMode pins the loosened CI-smoke thresholds.
func TestGatesQuickMode(t *testing.T) {
	f := gateFile(1, "avx2-6x8", []RegressResult{
		{Name: "BenchmarkNaiveMul/n=128", GFlops: 2.0},
		{Name: "BenchmarkKernelMul/n=128", GFlops: 3.0}, // 1.5x: fails full, passes quick
		{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 3.0},
		{Name: "BenchmarkKernelMulThreads/t=2", GFlops: 1.8}, // 0.6x: passes quick overhead
		{Name: "BenchmarkBlockMulAdd/bs=16", GFlops: 1.5},
	})
	f.Quick = true
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("quick file failed loosened gates: %v", errs)
	}
	// The asm absolute floor is full-mode only (n=128 cannot reach it).
	f.Quick = false
	if errs := f.CheckGates(); !hasViolation(errs, "below the 3.0x floor") {
		t.Fatalf("full-mode thresholds not applied after clearing Quick: %v", errs)
	}
}

// TestGatesSmallBlock pins the block-product gates: BS=16 at 0.35× the
// file's largest-n KernelMul rate in full and quick runs alike, and
// zero allocations on every BlockMulAdd row.
func TestGatesSmallBlock(t *testing.T) {
	file := func(quick bool, small float64, allocs int64) *RegressFile {
		f := gateFile(1, "avx2-6x8", []RegressResult{
			{Name: "BenchmarkNaiveMul/n=512", GFlops: 1.0},
			{Name: "BenchmarkKernelMul/n=256", GFlops: 40.0}, // not the largest n
			{Name: "BenchmarkNaiveMul/n=1024", GFlops: 1.0},
			{Name: "BenchmarkKernelMul/n=1024", GFlops: 30.0},
			{Name: "BenchmarkKernelMulThreads/t=1", GFlops: 30.0},
			{Name: "BenchmarkBlockMulAdd/bs=128", GFlops: 25.0, AllocsPerOp: allocs},
			{Name: "BenchmarkBlockMulAdd/bs=16", GFlops: small},
		})
		f.Quick = quick
		return f
	}
	for _, quick := range []bool{false, true} {
		// 11 GFLOP/s is 0.37x the n=1024 rate: passes.
		if errs := file(quick, 11, 0).CheckGates(); len(errs) != 0 {
			t.Fatalf("quick=%v: healthy block rows failed: %v", quick, errs)
		}
		// 4.5 GFLOP/s, the scalar loop's 0.15x, fails in both modes.
		if errs := file(quick, 4.5, 0).CheckGates(); !hasViolation(errs, "BlockMulAdd/bs=16 at 4.50 GFLOP/s is 0.15x KernelMul/n=1024") {
			t.Fatalf("quick=%v: 0.15x BS=16 block passed the 0.35x floor: %v", quick, errs)
		}
		// An allocating block product fails in both modes.
		if errs := file(quick, 11, 16).CheckGates(); !hasViolation(errs, "BenchmarkBlockMulAdd/bs=128 makes 16 allocations per op") {
			t.Fatalf("quick=%v: allocating block product passed: %v", quick, errs)
		}
	}
	// A kernels file without the BS=16 row cannot pass.
	f := file(false, 11, 0)
	f.Results = f.Results[:len(f.Results)-1]
	if errs := f.CheckGates(); !hasViolation(errs, "no BlockMulAdd/bs=16 measurement") {
		t.Fatalf("missing BS=16 row passed: %v", errs)
	}
}

// TestGatesIgnoreNonKernelSuites pins that a suite without gates of its
// own is ungated, and that the wire suite faces its own gates (see
// TestWireGates), never the kernel ones.
func TestGatesIgnoreNonKernelSuites(t *testing.T) {
	// No writer produces this suite, so it has no gates at all.
	f := &RegressFile{Schema: 2, Suite: "ungated"}
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("ungated suite hit gates: %v", errs)
	}
	f = &RegressFile{Schema: 2, Suite: "wire"}
	if errs := f.CheckGates(); hasViolation(errs, "kernel") {
		t.Fatalf("wire suite hit kernel gates: %v", errs)
	}
}

// wireGateFile builds a synthetic wire RegressFile holding the two
// BenchmarkSync rows and a BenchmarkControlRoundTrip pair that passes.
func wireGateFile(quick bool, plateauNs, ballastNs float64) *RegressFile {
	return ctlGateFile(quick, 230e3, 80e3, plateauNs, ballastNs)
}

// ctlGateFile is wireGateFile with the control round-trip pair chosen
// too; its codec rows pass.
func ctlGateFile(quick bool, serialNs, burstNs, plateauNs, ballastNs float64) *RegressFile {
	return &RegressFile{Schema: 2, Suite: "wire", Quick: quick, Results: []RegressResult{
		{Name: "BenchmarkSync/plateau", NsPerOp: plateauNs},
		{Name: "BenchmarkSync/ballast=4MiB", NsPerOp: ballastNs},
		{Name: "BenchmarkControlRoundTrip/serial", NsPerOp: serialNs, AllocsPerOp: 16},
		{Name: "BenchmarkControlRoundTrip/burst=16", NsPerOp: burstNs, AllocsPerOp: 15},
		{Name: "BenchmarkEncodeFrame/small", NsPerOp: 430, AllocsPerOp: 2},
		{Name: "BenchmarkDecodeFrame/small", NsPerOp: 690, AllocsPerOp: 7},
		{Name: "BenchmarkEncodeFrame/block=256", NsPerOp: 174e3, MBPerSec: 3016},
		{Name: "BenchmarkDecodeFrame/block=256", NsPerOp: 288e3, MBPerSec: 1821},
	}}
}

// withoutRows returns f's results minus those whose name has prefix.
func withoutRows(f *RegressFile, prefix string) []RegressResult {
	var out []RegressResult
	for _, r := range f.Results {
		if !strings.HasPrefix(r.Name, prefix) {
			out = append(out, r)
		}
	}
	return out
}

// TestWireGates pins the durability gates: a sync that costs what
// changed passes; one that is slow, or that follows resident state
// size, fails — with -quick loosening both, not removing them.
func TestWireGates(t *testing.T) {
	if errs := wireGateFile(false, 3300, 3500).CheckGates(); len(errs) != 0 {
		t.Fatalf("append-log numbers violated gates: %v", errs)
	}
	// The whole-image snapshot this gate was set against.
	errs := wireGateFile(false, 400e3, 6e6).CheckGates()
	if !hasViolation(errs, "above the 50 µs ceiling") || !hasViolation(errs, "follows resident state") {
		t.Fatalf("whole-image numbers passed the wire gates: %v", errs)
	}
	if errs := wireGateFile(false, 10e3, 25e3).CheckGates(); !hasViolation(errs, "2.50x the plateau sync") {
		t.Fatalf("a 2.5x ballast ratio passed the 2x gate: %v", errs)
	}
	if errs := wireGateFile(true, 120e3, 300e3).CheckGates(); len(errs) != 0 {
		t.Fatalf("quick run within the loosened gates failed: %v", errs)
	}
	if errs := wireGateFile(true, 400e3, 6e6).CheckGates(); len(errs) != 2 {
		t.Fatalf("whole-image numbers passed the quick wire gates: %v", errs)
	}
	missing := &RegressFile{Schema: 2, Suite: "wire"}
	if errs := missing.CheckGates(); !hasViolation(errs, "no BenchmarkSync") {
		t.Fatalf("a wire file without the sync rows passed: %v", errs)
	}
}

// TestGatesControlRoundTrip pins the control-plane gates: a
// connection that overlaps its callers passes; one whose burst queues
// (the serialized connection's numbers), or whose lone call pays too
// much for the pipelining, fails — and -quick loosens, never removes.
func TestGatesControlRoundTrip(t *testing.T) {
	if errs := ctlGateFile(false, 230e3, 80e3, 3300, 3500).CheckGates(); len(errs) != 0 {
		t.Fatalf("pipelined numbers violated gates: %v", errs)
	}
	// The serialized connection: a fine lone call, a burst that takes turns.
	if errs := ctlGateFile(false, 140e3, 250e3, 3300, 3500).CheckGates(); len(errs) != 1 || !hasViolation(errs, "not overlapping its callers") {
		t.Fatalf("serialized numbers passed the burst gate: %v", errs)
	}
	if errs := ctlGateFile(false, 450e3, 90e3, 3300, 3500).CheckGates(); len(errs) != 1 || !hasViolation(errs, "above the 400 µs ceiling") {
		t.Fatalf("a 450 µs lone round trip passed the ceiling: %v", errs)
	}
	if errs := ctlGateFile(true, 900e3, 1200e3, 3300, 3500).CheckGates(); len(errs) != 0 {
		t.Fatalf("quick run within the loosened control gates failed: %v", errs)
	}
	if errs := ctlGateFile(true, 2e6, 6e6, 3300, 3500).CheckGates(); len(errs) != 2 {
		t.Fatalf("a slow, serialized quick run passed the control gates: %v", errs)
	}
	noCtl := &RegressFile{Schema: 2, Suite: "wire", Results: withoutRows(wireGateFile(false, 3300, 3500), "BenchmarkControlRoundTrip/")}
	if errs := noCtl.CheckGates(); len(errs) != 1 || !hasViolation(errs, "no BenchmarkControlRoundTrip") {
		t.Fatalf("a wire file without the control round-trip rows passed: %v", errs)
	}
}

// TestGatesFrameCodec pins the codec gates, one passing and one violating
// file each: small-frame decode allocations and time, small-frame encode
// allocations, control round-trip allocations, and block=256 throughput
// both ways. -quick loosens the time gate only, and skips the block gate
// (quick runs measure no 256×256 block); a file without the small-frame
// rows fails.
func TestGatesFrameCodec(t *testing.T) {
	healthy := func(quick bool) *RegressFile { return ctlGateFile(quick, 18e3, 5e3, 3300, 3500) }
	for _, quick := range []bool{false, true} {
		if errs := healthy(quick).CheckGates(); len(errs) != 0 {
			t.Fatalf("primed-codec numbers (quick %v) violated gates: %v", quick, errs)
		}
	}
	for _, c := range []struct {
		name  string
		row   string
		set   func(r *RegressResult)
		quick bool
		want  string // "" means the file passes
	}{
		{"gob-envelope decode allocations", "BenchmarkDecodeFrame/small", func(r *RegressResult) { r.AllocsPerOp = 351 }, false, "351 allocations, above 40"},
		{"decode allocations at the bound", "BenchmarkDecodeFrame/small", func(r *RegressResult) { r.AllocsPerOp = 40 }, false, ""},
		{"decode allocations are not loosened by -quick", "BenchmarkDecodeFrame/small", func(r *RegressResult) { r.AllocsPerOp = 41 }, true, "41 allocations, above 40"},
		{"gob-envelope decode time", "BenchmarkDecodeFrame/small", func(r *RegressResult) { r.NsPerOp = 22e3 }, false, "above the 8 µs ceiling"},
		{"decode time within the quick slack", "BenchmarkDecodeFrame/small", func(r *RegressResult) { r.NsPerOp = 22e3 }, true, ""},
		{"decode time beyond the quick slack", "BenchmarkDecodeFrame/small", func(r *RegressResult) { r.NsPerOp = 40e3 }, true, "above the 32 µs ceiling"},
		{"gob-envelope encode allocations", "BenchmarkEncodeFrame/small", func(r *RegressResult) { r.AllocsPerOp = 34 }, false, "34 allocations, above 10"},
		{"encode allocations at the bound", "BenchmarkEncodeFrame/small", func(r *RegressResult) { r.AllocsPerOp = 10 }, true, ""},
		{"gob-envelope round-trip allocations", "BenchmarkControlRoundTrip/serial", func(r *RegressResult) { r.AllocsPerOp = 734 }, false, "734 allocations, above 120"},
		{"round-trip allocations are not loosened by -quick", "BenchmarkControlRoundTrip/serial", func(r *RegressResult) { r.AllocsPerOp = 121 }, true, "121 allocations, above 120"},
		{"round-trip allocations at the bound", "BenchmarkControlRoundTrip/serial", func(r *RegressResult) { r.AllocsPerOp = 120 }, false, ""},
		{"slow block encode", "BenchmarkEncodeFrame/block=256", func(r *RegressResult) { r.MBPerSec = 1300 }, false, "block=256 runs at 1300 MB/s"},
		{"slow block decode", "BenchmarkDecodeFrame/block=256", func(r *RegressResult) { r.MBPerSec = 1300 }, false, "block=256 runs at 1300 MB/s"},
		{"block floor held", "BenchmarkDecodeFrame/block=256", func(r *RegressResult) { r.MBPerSec = 1400 }, false, ""},
		{"quick runs measure no block", "BenchmarkDecodeFrame/block=256", func(r *RegressResult) { r.MBPerSec = 0 }, true, ""},
	} {
		f := healthy(c.quick)
		c.set(f.Find(c.row))
		errs := f.CheckGates()
		if c.want == "" {
			if len(errs) != 0 {
				t.Errorf("%s: violated gates: %v", c.name, errs)
			}
			continue
		}
		if len(errs) != 1 || !hasViolation(errs, c.want) {
			t.Errorf("%s: gates said %v, want one violation mentioning %q", c.name, errs, c.want)
		}
	}
	for _, prefix := range []string{"BenchmarkDecodeFrame/small", "BenchmarkEncodeFrame/block=256"} {
		f := healthy(false)
		f.Results = withoutRows(f, prefix)
		if errs := f.CheckGates(); len(errs) != 1 || !hasViolation(errs, "no Benchmark") {
			t.Errorf("a file without %s: gates said %v, want one missing-row violation", prefix, errs)
		}
	}
}

// navpGateFile builds a synthetic navp RegressFile whose rows pass.
func navpGateFile() *RegressFile {
	return &RegressFile{Schema: 2, Suite: "navp", GOMAXPROCS: 2, Results: []RegressResult{
		{Name: "BenchmarkHopReal", NsPerOp: 900},
		{Name: "BenchmarkEventRoundTripReal", NsPerOp: 640},
		{Name: "BenchmarkPhase2DFine", NsPerOp: 54e6, AllocsPerOp: 29.4e3},
		{Name: "BenchmarkSequentialFine", NsPerOp: 23e6, AllocsPerOp: 60},
		{Name: "BenchmarkProcessSwitch", NsPerOp: 450},
		{Name: "BenchmarkEventSignalWait", NsPerOp: 570},
		{Name: "BenchmarkEventFanReal", NsPerOp: 17},
		{Name: "BenchmarkGentlemanFine", NsPerOp: 20e6, AllocsPerOp: 12.8e3},
		{Name: "BenchmarkLocalOpsReal/pes=1", NsPerOp: 11.6},
		{Name: "BenchmarkLocalOpsReal/pes=2", NsPerOp: 11.9},
	}}
}

// TestNavpGates pins the runtime gates: one loop per PE passes; the
// goroutine-per-agent backend's Phase2D ratio fails, as does an
// allocation per event round trip, per signal/wait pair of the event
// fan, per hop, per kernel process switch or per kernel signal/wait
// pair, and a paper-fine solve over its allocation cap (one at its cap
// passes). Same-PE actions that slow at two PEs, as they did while
// every PE bumped one process-wide counter, fail, as does an allocation
// among them. A one-CPU host skips the ratios, never the allocation
// gates; the ratio to Gentleman's Algorithm is never gated.
func TestNavpGates(t *testing.T) {
	if errs := navpGateFile().CheckGates(); len(errs) != 0 {
		t.Fatalf("run-loop numbers violated gates: %v", errs)
	}
	f := navpGateFile()
	f.Results[7].NsPerOp = 1e6 // Phase2DFine 54x GentlemanFine
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("the ratio to GentlemanFine was gated: %v", errs)
	}
	f = navpGateFile()
	f.Results[6].AllocsPerOp = 1
	if errs := f.CheckGates(); !hasViolation(errs, "BenchmarkEventFanReal makes 1 allocations per op, above 0") {
		t.Fatalf("an allocation per fanned signal/wait pair passed: %v", errs)
	}
	f = navpGateFile()
	f.Results[2].NsPerOp = 103e6 // 4.48x, as a goroutine per agent read
	if errs := f.CheckGates(); !hasViolation(errs, "Phase2DFine is 4.48x SequentialFine, above the 4.0x ceiling") {
		t.Fatalf("a 4.48x Phase2D ratio passed the gate: %v", errs)
	}
	f.GOMAXPROCS = 1
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("the ratio gate applied on one CPU: %v", errs)
	}
	f = navpGateFile()
	f.Results[1].AllocsPerOp = 2
	if errs := f.CheckGates(); !hasViolation(errs, "BenchmarkEventRoundTripReal makes 2 allocations per op, above 0") {
		t.Fatalf("2 allocations per event round trip passed: %v", errs)
	}
	f = navpGateFile()
	f.Results[0].AllocsPerOp = 1
	if errs := f.CheckGates(); !hasViolation(errs, "BenchmarkHopReal makes 1 allocations per op, above 0") {
		t.Fatalf("an allocation per hop passed: %v", errs)
	}
	f = navpGateFile()
	f.Results[4].AllocsPerOp = 2
	f.Results[5].AllocsPerOp = 4
	if errs := f.CheckGates(); !hasViolation(errs, "BenchmarkProcessSwitch makes 2 allocations per op, above 0") ||
		!hasViolation(errs, "BenchmarkEventSignalWait makes 4 allocations per op, above 0") {
		t.Fatalf("kernel allocations passed: %v", errs)
	}
	f = navpGateFile()
	f.Results[2].AllocsPerOp = gatePhase2DFineAllocs
	f.Results[3].AllocsPerOp = gateSequentialFineAllocs
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("paper-fine solves at their allocation caps failed: %v", errs)
	}
	f.Results[2].AllocsPerOp = 314_576 // names built per call, escaping closures
	f.Results[3].AllocsPerOp = gateSequentialFineAllocs + 1
	if errs := f.CheckGates(); !hasViolation(errs, "BenchmarkPhase2DFine makes 314576 allocations per op, above 32400") ||
		!hasViolation(errs, "BenchmarkSequentialFine makes 68 allocations per op, above 67") {
		t.Fatalf("paper-fine solves over their allocation caps passed: %v", errs)
	}
	f = navpGateFile()
	f.Results[9].NsPerOp = 118.4 // the shared counter's 10.2x
	if errs := f.CheckGates(); !hasViolation(errs, "LocalOpsReal at 2 PEs is 10.21x 1 PE, above the 1.30x ceiling") {
		t.Fatalf("same-PE actions 10x slower at two PEs passed: %v", errs)
	}
	f.GOMAXPROCS = 1
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("the local-ops ratio gate applied on one CPU: %v", errs)
	}
	f = navpGateFile()
	f.Results[9].NsPerOp = 20 // 1.72x: over the full-run ceiling, under the quick one
	if errs := f.CheckGates(); !hasViolation(errs, "above the 1.30x ceiling") {
		t.Fatalf("a 1.72x local-ops ratio passed a full run: %v", errs)
	}
	f.Quick = true
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("a 1.72x local-ops ratio failed a quick run: %v", errs)
	}
	f.Results[9].NsPerOp = 25
	if errs := f.CheckGates(); !hasViolation(errs, "LocalOpsReal at 2 PEs is 2.16x 1 PE, above the 1.95x ceiling") {
		t.Fatalf("a 2.16x local-ops ratio passed a quick run: %v", errs)
	}
	f = navpGateFile()
	f.Results[8].AllocsPerOp = 1
	if errs := f.CheckGates(); !hasViolation(errs, "BenchmarkLocalOpsReal/pes=1 makes 1 allocations per op, above 0") {
		t.Fatalf("an allocation per same-PE round passed: %v", errs)
	}
	missing := &RegressFile{Schema: 2, Suite: "navp", GOMAXPROCS: 2}
	if errs := missing.CheckGates(); !hasViolation(errs, "no BenchmarkPhase2DFine/SequentialFine pair") ||
		!hasViolation(errs, "no BenchmarkHopReal") || !hasViolation(errs, "no BenchmarkProcessSwitch") ||
		!hasViolation(errs, "no BenchmarkLocalOpsReal pes=1/pes=2 pair") {
		t.Fatalf("a navp file without its rows passed: %v", errs)
	}
}

// TestPrintRatios pins the ratio lines paperbench -regress prints after
// the navp file, and that a ratio missing a row is left out.
func TestPrintRatios(t *testing.T) {
	var b strings.Builder
	navpGateFile().PrintRatios(&b)
	if got, want := b.String(), "Phase2DFine / SequentialFine: 2.35\nPhase2DFine / GentlemanFine: 2.70\n"; got != want {
		t.Fatalf("printed %q, want %q", got, want)
	}
	f := navpGateFile()
	f.Results = withoutRows(f, "BenchmarkGentlemanFine")
	b.Reset()
	f.PrintRatios(&b)
	if got, want := b.String(), "Phase2DFine / SequentialFine: 2.35\n"; got != want {
		t.Fatalf("without GentlemanFine printed %q, want %q", got, want)
	}
}
