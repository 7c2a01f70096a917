package bench

// Regression gates over a freshly measured kernels or wire RegressFile.
// The harness FAILS (paperbench -regress exits non-zero) when a gate is
// violated — recording a regression is not enough, the run itself must
// go red. The kernel thresholds encode the issue's acceptance floors:
//
//   - the packed kernel must hold ≥3× the naive baseline (the original
//     roofline gap this repo's compute path exists to close);
//   - the assembly path, when dispatched, must hold ≥22.2 GFLOP/s at
//     n=1024 (3× the 7.4 GFLOP/s the pure-Go kernel measured when the
//     gate was set);
//   - threading must help where the host can express it: with ≥4 CPUs,
//     t=4 must reach ≥2.5× t=1, and any t within NumCPU may not be
//     slower than single-threaded (beyond NumCPU the points measure
//     scheduling overhead and are held to a bounded cost instead).
//
// Quick (CI smoke) runs use loosened thresholds: at n=128 the kernel's
// cache blocking barely engages and thread overhead dominates, so the
// quick gates only catch catastrophic breakage, not drift.
//
// The wire suite gates the durability layer (DESIGN.md §13.2): a sync
// must cost what changed, not what the node holds —
//
//   - one sync of an 8-byte change on a plateau-shaped node stays under
//     50 µs (the whole-image snapshot it replaced took 330–450 µs; the
//     append takes ~3);
//   - the same sync beside 4 MiB of resident state costs at most 2× the
//     bare one (the snapshot's ratio was 13–20).
//
// and the coordinator's pipelined control connection (DESIGN.md §13.3):
// overlapping calls must pay, and a lone call must not pay much for it —
//
//   - sixteen callers with a GetVar in flight at once complete a call in
//     at most 0.6× the time callers taking turns do (the serialized
//     connection this replaced measured about 1.8×: the burst queued on its
//     mutex);
//   - a lone round trip stays under 400 µs (it costs a hand-off from the
//     connection's reader goroutine that the serialized one did not:
//     ~230 µs against ~140 µs on the 2-CPU host of BENCH_wire.json).
//
// Quick runs keep all four gates at 4× the slack: on a loaded CI runner
// the append's microseconds are noisy, a re-encoded image's are not.

import (
	"fmt"
	"runtime"
	"strings"
)

const (
	// gateKernelSpeedup is the kernel-vs-naive GFLOP/s floor (full runs).
	gateKernelSpeedup = 3.0
	// gateQuickSpeedup is the loosened floor for -quick smoke runs.
	gateQuickSpeedup = 1.2
	// gateASMFloorGF is the absolute GFLOP/s floor at n=1024 when the
	// assembly micro-kernel is the dispatched variant.
	gateASMFloorGF = 22.2
	// gateThreadScale is the required t=4 over t=1 ratio on hosts with
	// at least 4 CPUs.
	gateThreadScale = 2.5
	// gateNotSlower tolerates measurement noise on the "a threaded
	// point within NumCPU may not be slower than t=1" gate.
	gateNotSlower = 0.95
	// gateOverhead bounds the cost of oversubscription: points with
	// t > NumCPU must keep at least this fraction of t=1 throughput.
	// On a 1-CPU host the whole curve measures scheduler overhead and
	// run-to-run noise sits within a few percent, so the bound leaves
	// headroom below the ~0.8x such hosts typically measure.
	gateOverhead = 0.75
	// gateQuickOverhead is the loosened oversubscription bound for
	// -quick runs (n=128, where per-panel overhead is proportionally
	// large).
	gateQuickOverhead = 0.50

	// gateSyncPlateauNs caps BenchmarkSync/plateau (full runs).
	gateSyncPlateauNs = 50e3
	// gateSyncBallastRatio caps ballast=4MiB over plateau (full runs).
	gateSyncBallastRatio = 2.0
	// gateCtlBurstRatio caps BenchmarkControlRoundTrip burst=16 over
	// serial, per call (full runs).
	gateCtlBurstRatio = 0.6
	// gateCtlSerialNs caps BenchmarkControlRoundTrip/serial (full runs).
	gateCtlSerialNs = 400e3
	// gateQuickSyncSlack loosens the wire gates for -quick runs.
	gateQuickSyncSlack = 4.0
)

// CheckGates evaluates every regression gate of the file's suite and
// returns the violations (empty means the run passes).
func (f *RegressFile) CheckGates() []error {
	switch f.Suite {
	case "kernels":
		return f.checkKernelGates()
	case "wire":
		return f.checkWireGates()
	}
	return nil
}

// checkWireGates holds the durability layer to a sync cost that is
// small and flat in resident state size, and the control connection to
// overlap that pays without a lone call paying much for it.
func (f *RegressFile) checkWireGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}
	slack := 1.0
	if f.Quick {
		slack = gateQuickSyncSlack
	}
	plateau, ballast := f.Find("BenchmarkSync/plateau"), f.Find("BenchmarkSync/ballast=4MiB")
	if plateau == nil || ballast == nil || plateau.NsPerOp <= 0 {
		fail("no BenchmarkSync plateau/ballast pair recorded")
	} else {
		if ceiling := gateSyncPlateauNs * slack; plateau.NsPerOp > ceiling {
			fail("sync on the serving plateau is %.1f µs, above the %.0f µs ceiling", plateau.NsPerOp/1e3, ceiling/1e3)
		}
		if ratio, ratioCap := ballast.NsPerOp/plateau.NsPerOp, gateSyncBallastRatio*slack; ratio > ratioCap {
			fail("sync beside 4 MiB of ballast is %.2fx the plateau sync, above %.1fx — its cost follows resident state, not what changed", ratio, ratioCap)
		}
	}
	serial, burst := f.Find("BenchmarkControlRoundTrip/serial"), f.Find("BenchmarkControlRoundTrip/burst=16")
	if serial == nil || burst == nil || serial.NsPerOp <= 0 {
		fail("no BenchmarkControlRoundTrip serial/burst=16 pair recorded")
	} else {
		if ceiling := gateCtlSerialNs * slack; serial.NsPerOp > ceiling {
			fail("a lone control round trip is %.0f µs, above the %.0f µs ceiling", serial.NsPerOp/1e3, ceiling/1e3)
		}
		if ratio, ratioCap := burst.NsPerOp/serial.NsPerOp, gateCtlBurstRatio*slack; ratio > ratioCap {
			fail("a control round trip in a burst of 16 is %.2fx a lone one, above %.1fx — the connection is not overlapping its callers", ratio, ratioCap)
		}
	}
	return errs
}

func (f *RegressFile) checkKernelGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}

	floor := gateKernelSpeedup
	if f.Quick {
		floor = gateQuickSpeedup
	}
	if n, ratio, err := f.KernelSpeedup(); err != nil {
		fail("kernel speedup unmeasurable: %v", err)
	} else if ratio < floor {
		fail("kernel vs naive at n=%d is %.2fx, below the %.1fx floor", n, ratio, floor)
	}

	if !f.Quick && strings.HasPrefix(f.Kernel, "avx2") {
		r := f.Find("BenchmarkKernelMul/n=1024")
		if r == nil {
			fail("asm kernel dispatched but no n=1024 measurement recorded")
		} else if r.GFlops < gateASMFloorGF {
			fail("asm kernel at n=1024 is %.2f GFLOP/s, below the %.1f floor", r.GFlops, gateASMFloorGF)
		}
	}

	errs = append(errs, f.checkThreadGates()...)
	return errs
}

// checkThreadGates applies the thread-scaling gates to whatever
// BenchmarkKernelMulThreads points the file recorded. The host's CPU
// count decides which gate each point faces: real scaling within
// NumCPU, bounded overhead beyond it. runtime.NumCPU() at check time
// matches f.NumCPU because the gates run in the same process as the
// measurement (paperbench -regress).
func (f *RegressFile) checkThreadGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}
	t1 := f.Find("BenchmarkKernelMulThreads/t=1")
	if t1 == nil || t1.GFlops == 0 {
		if f.Quick {
			return nil // quick files before schema 2 had no t=1 point
		}
		fail("no single-threaded KernelMulThreads baseline recorded")
		return errs
	}
	ncpu := f.NumCPU
	if ncpu == 0 {
		ncpu = runtime.NumCPU()
	}
	notSlower, overhead := gateNotSlower, gateOverhead
	if f.Quick {
		notSlower, overhead = gateQuickOverhead, gateQuickOverhead
	}
	for _, r := range f.Results {
		var t int
		if _, err := fmt.Sscanf(r.Name, "BenchmarkKernelMulThreads/t=%d", &t); err != nil || t <= 1 {
			continue
		}
		ratio := r.GFlops / t1.GFlops
		switch {
		case t <= ncpu && ratio < notSlower:
			fail("t=%d is %.2fx t=1 — a threaded point within NumCPU=%d may not be slower than single-threaded", t, ratio, ncpu)
		case t > ncpu && ratio < overhead:
			fail("t=%d (oversubscribed, NumCPU=%d) is %.2fx t=1, below the %.2fx overhead bound", t, ncpu, ratio, overhead)
		}
		if !f.Quick && t == 4 && ncpu >= 4 && ratio < gateThreadScale {
			fail("t=4 is %.2fx t=1 on a %d-CPU host, below the %.1fx scaling floor", ratio, ncpu, gateThreadScale)
		}
	}
	return errs
}
