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
//   - the block product at paper-fine's BS=16, which runs the
//     micro-kernel in place on the unpacked blocks, must reach 0.35× the
//     same file's largest-n KernelMul rate (the scalar loop it replaced
//     read about 0.15×, the in-place path 0.68–0.76× on the 2-CPU
//     navpbench host); the bound is relative to the host, so quick runs
//     keep it;
//   - every BlockMulAdd row allocates nothing (DESIGN.md §10.1).
//
// Quick (CI smoke) runs use loosened thresholds: at n=128 the kernel's
// cache blocking barely engages and thread overhead dominates, so the
// quick gates only catch catastrophic breakage, not drift. The
// allocation gate is not loosened.
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
// and the frame codec (DESIGN.md §10.2) to the cost of a hand-framed
// header and a primed payload rather than a fresh gob stream per frame —
//
//   - decoding a small agent frame takes at most 40 allocations and
//     8 µs (the gob envelope took 351 and 22–30 µs), encoding one at most
//     10 allocations (it took 34);
//   - a control round trip — two encodes, two decodes — takes at most
//     120 allocations (it took 734);
//   - a frame carrying a 256×256 block encodes and decodes at 1.4 GB/s
//     or more each, which the gob envelope already held.
//
// Quick runs keep the time gates at 4× the slack: on a loaded CI runner
// the append's microseconds are noisy, a re-encoded image's are not.
// Allocation gates are not loosened — an allocation count does not
// depend on the host — and quick runs measure no 256×256 block.
//
// The navp suite gates both executors of NavP programs. The simulation
// kernel's process switch and its event signal/wait pair make no
// allocation (the run queue and the event waiters are rings, park
// reasons are built once). The goroutine NavP runtime (DESIGN.md §4) is
// gated on the control overhead that decides whether the paper's best
// variant can beat the program it parallelises on real cores —
//
//   - paper-fine's Phase2D solve takes at most 4.0× its Sequential twin
//     on the same host, in every run with GOMAXPROCS ≥ 2 (a goroutine
//     per agent, a CPU mutex per compute and a sync.Cond park per wait
//     read 4.4–4.6×; one coroutine loop per PE reads 3.3–3.8×);
//   - an event round trip on one PE, a signal/wait pair on each of
//     32 768 events in turn and a hop between PEs make no allocation (the
//     waiter FIFO is intrusive, the event records are values in a table
//     indexed by handle, the run queue is a ring and the inbox a swapped
//     pair of buffers);
//   - a block product allocates nothing, so the two paper-fine solves
//     stay within about 1.1× of their measured allocation counts
//     (Phase2D 37.6 k, Sequential 6.2 k; 314.6 k and 44.1 k while names
//     were built per call, Compute's closure escaped and every event
//     record was a heap object, 44.0 k and 8.3 k while agent variables
//     were a map per agent): what remains is per agent or per input
//     block, not per block product.
//
// Phase2DFine over GentlemanFine, the paper's comparison with MPI, is
// recorded and printed but not gated: NavP loses it on real cores at
// this grain (ROADMAP).

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
	// AVX2 assembly micro-kernel is the dispatched variant.
	gateASMFloorGF = 22.2
	// gateAVX512FloorGF is the same floor for the AVX-512 micro-kernel
	// (34–41 GFLOP/s measured on a 2-CPU 2.1 GHz Xeon).
	gateAVX512FloorGF = 30.0
	// gateSmallBlockShare is the BS=16 BlockMulAdd floor as a fraction
	// of the file's largest-n KernelMul GFLOP/s (all runs).
	gateSmallBlockShare = 0.35
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
	// gateCtlSerialAllocs caps BenchmarkControlRoundTrip/serial's
	// allocations (all runs).
	gateCtlSerialAllocs = 120
	// gateDecodeSmallNs caps BenchmarkDecodeFrame/small (full runs).
	gateDecodeSmallNs = 8e3
	// gateDecodeSmallAllocs and gateEncodeSmallAllocs cap the small
	// frame's decode and encode allocations (all runs).
	gateDecodeSmallAllocs = 40
	gateEncodeSmallAllocs = 10
	// gateBlockMBPerSec is the floor under encoding and decoding a frame
	// carrying a 256×256 block (full runs; quick runs measure none).
	gateBlockMBPerSec = 1400
	// gateQuickSyncSlack loosens the wire gates for -quick runs.
	gateQuickSyncSlack = 4.0

	// gateFineRatio caps BenchmarkPhase2DFine over
	// BenchmarkSequentialFine (runs with GOMAXPROCS ≥ 2).
	gateFineRatio = 4.0
	// gateEventRoundTripAllocs and gateHopAllocs cap the goroutine
	// runtime's allocations per event round trip, per signal/wait pair
	// over many events and per hop (all runs).
	gateEventRoundTripAllocs = 0
	gateEventFanAllocs       = 0
	gateHopAllocs            = 0
	// gateProcessSwitchAllocs and gateSignalWaitAllocs cap the
	// simulation kernel's allocations per process switch and per event
	// signal/wait pair (all runs).
	gateProcessSwitchAllocs = 0
	gateSignalWaitAllocs    = 0
	// gatePhase2DFineAllocs and gateSequentialFineAllocs cap the
	// allocations of one paper-fine solve on the goroutine runtime (all
	// runs).
	gatePhase2DFineAllocs    = 41_400
	gateSequentialFineAllocs = 6_800
)

// CheckGates evaluates every regression gate of the file's suite and
// returns the violations (empty means the run passes).
func (f *RegressFile) CheckGates() []error {
	switch f.Suite {
	case "kernels":
		return f.checkKernelGates()
	case "wire":
		return f.checkWireGates()
	case "navp":
		return f.checkNavpGates()
	}
	return nil
}

// checkNavpGates holds paper-fine's Phase2D to a multiple of its
// Sequential twin, and the kernel's switch and event pair, the
// runtime's hop and event hand-off and both paper-fine solves to their
// allocation counts.
func (f *RegressFile) checkNavpGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}
	phase2d, seq := f.Find("BenchmarkPhase2DFine"), f.Find("BenchmarkSequentialFine")
	switch {
	case phase2d == nil || seq == nil || seq.NsPerOp <= 0:
		fail("no BenchmarkPhase2DFine/SequentialFine pair recorded")
	case f.GOMAXPROCS < 2:
		// One CPU runs all four PEs' loops in turn: no parallelism to
		// offset the runtime's cost, so the ratio measures nothing.
	case phase2d.NsPerOp/seq.NsPerOp > gateFineRatio:
		fail("Phase2DFine is %.2fx SequentialFine, above the %.1fx ceiling — the runtime's control overhead outweighs four PEs", phase2d.NsPerOp/seq.NsPerOp, gateFineRatio)
	}
	for _, c := range []struct {
		name string
		max  int64
	}{
		{"BenchmarkProcessSwitch", gateProcessSwitchAllocs},
		{"BenchmarkEventSignalWait", gateSignalWaitAllocs},
		{"BenchmarkEventRoundTripReal", gateEventRoundTripAllocs},
		{"BenchmarkEventFanReal", gateEventFanAllocs},
		{"BenchmarkHopReal", gateHopAllocs},
		{"BenchmarkPhase2DFine", gatePhase2DFineAllocs},
		{"BenchmarkSequentialFine", gateSequentialFineAllocs},
	} {
		switch r := f.Find(c.name); {
		case r == nil:
			fail("no %s recorded", c.name)
		case r.AllocsPerOp > c.max:
			fail("%s makes %d allocations per op, above %d", c.name, r.AllocsPerOp, c.max)
		}
	}
	return errs
}

// checkWireGates holds the durability layer to a sync cost that is
// small and flat in resident state size, the control connection to
// overlap that pays without a lone call paying much for it, and the
// frame codec to a primed payload's allocations and throughput.
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
		if serial.AllocsPerOp > gateCtlSerialAllocs {
			fail("a control round trip makes %d allocations, above %d", serial.AllocsPerOp, gateCtlSerialAllocs)
		}
	}
	enc, dec := f.Find("BenchmarkEncodeFrame/small"), f.Find("BenchmarkDecodeFrame/small")
	if enc == nil || dec == nil || dec.NsPerOp <= 0 {
		fail("no BenchmarkEncodeFrame/DecodeFrame small pair recorded")
	} else {
		if dec.AllocsPerOp > gateDecodeSmallAllocs {
			fail("decoding a small frame makes %d allocations, above %d", dec.AllocsPerOp, gateDecodeSmallAllocs)
		}
		if ceiling := gateDecodeSmallNs * slack; dec.NsPerOp > ceiling {
			fail("decoding a small frame takes %.1f µs, above the %.0f µs ceiling", dec.NsPerOp/1e3, ceiling/1e3)
		}
		if enc.AllocsPerOp > gateEncodeSmallAllocs {
			fail("encoding a small frame makes %d allocations, above %d", enc.AllocsPerOp, gateEncodeSmallAllocs)
		}
	}
	if !f.Quick {
		for _, name := range []string{"BenchmarkEncodeFrame/block=256", "BenchmarkDecodeFrame/block=256"} {
			switch r := f.Find(name); {
			case r == nil:
				fail("no %s recorded", name)
			case r.MBPerSec < gateBlockMBPerSec:
				fail("%s runs at %.0f MB/s, below the %d MB/s floor", name, r.MBPerSec, gateBlockMBPerSec)
			}
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

	asmFloor := 0.0
	switch {
	case strings.HasPrefix(f.Kernel, "avx512"):
		asmFloor = gateAVX512FloorGF
	case strings.HasPrefix(f.Kernel, "avx2"):
		asmFloor = gateASMFloorGF
	}
	if !f.Quick && asmFloor > 0 {
		r := f.Find("BenchmarkKernelMul/n=1024")
		if r == nil {
			fail("asm kernel dispatched but no n=1024 measurement recorded")
		} else if r.GFlops < asmFloor {
			fail("%s kernel at n=1024 is %.2f GFLOP/s, below the %.1f floor", f.Kernel, r.GFlops, asmFloor)
		}
	}

	errs = append(errs, f.checkBlockGates()...)
	errs = append(errs, f.checkThreadGates()...)
	return errs
}

// checkBlockGates holds the BS=16 block product to a share of the
// packed kernel's rate on the same host, and every block product to
// zero allocations.
func (f *RegressFile) checkBlockGates() []error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("gate: "+format, args...))
	}
	small := f.Find("BenchmarkBlockMulAdd/bs=16")
	n, big := f.largestKernelMul()
	switch {
	case small == nil:
		fail("no BlockMulAdd/bs=16 measurement recorded")
	case big == nil:
		fail("no KernelMul measurement to hold BlockMulAdd/bs=16 against")
	case small.GFlops < gateSmallBlockShare*big.GFlops:
		fail("BlockMulAdd/bs=16 at %.2f GFLOP/s is %.2fx KernelMul/n=%d, below the %.2fx floor",
			small.GFlops, small.GFlops/big.GFlops, n, gateSmallBlockShare)
	}
	for _, r := range f.Results {
		if strings.HasPrefix(r.Name, "BenchmarkBlockMulAdd/") && r.AllocsPerOp != 0 {
			fail("%s makes %d allocations per op, want 0", r.Name, r.AllocsPerOp)
		}
	}
	return errs
}

// largestKernelMul returns the KernelMul row with the largest n.
func (f *RegressFile) largestKernelMul() (n int, r *RegressResult) {
	for i := range f.Results {
		var size int
		if _, err := fmt.Sscanf(f.Results[i].Name, "BenchmarkKernelMul/n=%d", &size); err == nil && size > n {
			n, r = size, &f.Results[i]
		}
	}
	return n, r
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
