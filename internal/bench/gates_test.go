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

// TestGatesIgnoreNonKernelSuites pins that a suite without gates of its
// own is ungated, and that the wire suite faces its own gates (see
// TestWireGates), never the kernel ones.
func TestGatesIgnoreNonKernelSuites(t *testing.T) {
	f := &RegressFile{Schema: 2, Suite: "sched"}
	if errs := f.CheckGates(); len(errs) != 0 {
		t.Fatalf("sched suite hit gates: %v", errs)
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
// too.
func ctlGateFile(quick bool, serialNs, burstNs, plateauNs, ballastNs float64) *RegressFile {
	return &RegressFile{Schema: 2, Suite: "wire", Quick: quick, Results: []RegressResult{
		{Name: "BenchmarkSync/plateau", NsPerOp: plateauNs},
		{Name: "BenchmarkSync/ballast=4MiB", NsPerOp: ballastNs},
		{Name: "BenchmarkControlRoundTrip/serial", NsPerOp: serialNs},
		{Name: "BenchmarkControlRoundTrip/burst=16", NsPerOp: burstNs},
	}}
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
	noCtl := &RegressFile{Schema: 2, Suite: "wire", Results: wireGateFile(false, 3300, 3500).Results[:2]}
	if errs := noCtl.CheckGates(); len(errs) != 1 || !hasViolation(errs, "no BenchmarkControlRoundTrip") {
		t.Fatalf("a wire file without the control round-trip rows passed: %v", errs)
	}
}
