package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/matmul"
	"repro/internal/matrix"
	"repro/internal/metrics"
	"repro/internal/navp"
	"repro/internal/trace"
)

// The paper workloads: the stage programs of the matmul progression on
// the real goroutine backend, run round-robin so that drift in the host
// reaches every stage alike.
type paperSpec struct{ n, bs, p int }

func runPaperCoarse(b *bench) error { return runPaper(b, paperSpec{n: 1536, bs: 256, p: 2}) }
func runPaperFine(b *bench) error   { return runPaper(b, paperSpec{n: 512, bs: 16, p: 2}) }

// The stages behind the end-to-end roles, and the whole cycle the
// traced run times.
var (
	roleStages = []matmul.Stage{matmul.Sequential, matmul.Phase1D, matmul.Phase2D}
	allStages  = []matmul.Stage{matmul.Sequential, matmul.DSC1D, matmul.Pipeline1D, matmul.Phase1D, matmul.Phase2D}
)

// paperRun is one entry of a cycle: a stage, with or without a metrics
// registry (and, under -trace-out, a tracer) installed.
type paperRun struct {
	stage  matmul.Stage
	traced bool
}

func plainRuns(stages []matmul.Stage) []paperRun {
	runs := make([]paperRun, len(stages))
	for i, st := range stages {
		runs[i] = paperRun{stage: st}
	}
	return runs
}

// paper is one set-up paper workload.
type paper struct {
	b      *bench
	cfg    matmul.Config
	oracle *paperOracle
	// What the latest traced run of each stage recorded. Every traced
	// run gets a fresh registry, so its counters are that run's exact
	// counts; rec is filled only under -trace-out.
	reg map[matmul.Stage]*metrics.Registry
	rec map[matmul.Stage]*trace.Recorder
}

// startPaper generates the inputs, computes the reference product and
// runs one warm-up cycle.
func startPaper(b *bench, spec paperSpec, warmup []paperRun) (*paper, error) {
	p := &paper{
		b:   b,
		cfg: matmul.Config{N: spec.n, BS: spec.bs, P: spec.p, Real: true, Seed: b.seed},
		reg: map[matmul.Stage]*metrics.Registry{},
		rec: map[matmul.Stage]*trace.Recorder{},
	}
	p.oracle = newPaperOracle(p.cfg)
	for _, run := range warmup {
		if _, err := p.solve(run); err != nil {
			return nil, fmt.Errorf("warm-up %v: %w", run.stage, err)
		}
	}
	return p, nil
}

// solve times one matmul.Run and checks its product outside the timed
// span.
func (p *paper) solve(run paperRun) (float64, error) {
	cfg := p.cfg
	if run.traced {
		p.reg[run.stage] = metrics.NewRegistry()
		cfg.Metrics = p.reg[run.stage]
		// The per-layer numbers need the registry's counts only; the
		// event recorder costs a Phase2D run at BS=16 another 15 %, so it
		// is installed only when its output was asked for.
		if p.b.traceOut != "" {
			p.rec[run.stage] = trace.New()
			cfg.Tracer = p.rec[run.stage]
		}
	}
	begin := time.Now()
	res, err := matmul.Run(run.stage, cfg)
	took := ms(time.Since(begin))
	if err != nil {
		return took, err
	}
	if err := p.oracle.check(res.C); err != nil {
		return took, fmt.Errorf("%v: %w: %v", run.stage, errWrongResult, err)
	}
	return took, nil
}

// cycles runs the cycle round-robin for dur and returns each entry's
// wall times. A failed or wrong solve is counted, not timed.
func (p *paper) cycles(cycle []paperRun, dur time.Duration) map[paperRun][]float64 {
	times := map[paperRun][]float64{}
	l := &load{}
	begin := time.Now()
	for time.Since(begin) < dur && !p.b.abandoned.Load() {
		for _, run := range cycle {
			took, err := p.solve(run)
			l.record(jobSample{latencyMS: took}, err)
			if err == nil {
				times[run] = append(times[run], took)
			}
		}
	}
	p.b.add(l.tally)
	return times
}

func runPaper(b *bench, spec paperSpec) error {
	if b.traced {
		return paperLayers(b, spec)
	}
	cycle := plainRuns(roleStages)
	var p *paper
	var setups []float64
	for round := 0; round < setupRounds; round++ {
		begin := b.setupStart()
		var err error
		if p, err = startPaper(b, spec, cycle); err != nil {
			return err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	b.res.set("setup_s", median(setups), len(setups), "")
	times := p.cycles(cycle, b.share(1))
	for i, name := range []string{"solo_p50_ms", "duo_p50_ms", "stress_ms"} {
		t := times[cycle[i]]
		if len(t) == 0 {
			return fmt.Errorf("%v completed no verified run", roleStages[i])
		}
		note := ""
		if !tailRule(len(t), 0.50) {
			note = "fewer than 10 samples beyond the median"
		}
		b.res.set(name, median(t), len(t), note)
	}
	return nil
}

// paperLayers is the traced run: the five-stage cycle, with the two
// phase-shifted stages run a second time in each round with a metrics
// registry installed (traced and untraced runs interleave, so their
// ratio is the tracing overhead and not drift), then the kernel and
// runtime probes.
func paperLayers(b *bench, spec paperSpec) error {
	cycle := append(plainRuns(allStages),
		paperRun{stage: matmul.Phase1D, traced: true}, paperRun{stage: matmul.Phase2D, traced: true})
	p, err := startPaper(b, spec, cycle)
	if err != nil {
		return err
	}
	r := b.res
	times := p.cycles(cycle, b.share(0.7))
	for _, run := range cycle {
		if len(times[run]) == 0 {
			return fmt.Errorf("%v completed no verified run", run.stage)
		}
	}
	p50 := func(st matmul.Stage) float64 { return median(times[paperRun{stage: st}]) }
	rounds := len(times[cycle[0]])
	seq := p50(matmul.Sequential)
	for st, name := range map[matmul.Stage]string{
		matmul.DSC1D: "dsc1d", matmul.Pipeline1D: "pipe1d", matmul.Phase1D: "phase1d", matmul.Phase2D: "phase2d",
	} {
		r.set("matmul.speedup_"+name, seq/p50(st), rounds, fmt.Sprintf("%.2f ms / %.2f ms", seq, p50(st)))
	}
	r.set("matmul.dsc1d_p50_ms", p50(matmul.DSC1D), rounds, "")
	r.set("matmul.pipe1d_p50_ms", p50(matmul.Pipeline1D), rounds, "")
	tracedP2D := times[paperRun{stage: matmul.Phase2D, traced: true}]
	r.set("trace.overhead_ratio", median(tracedP2D)/p50(matmul.Phase2D), len(tracedP2D), "traced Phase2D p50 / untraced Phase2D p50")
	if b.traceOut != "" {
		pes := spec.p * spec.p
		if err := writeFile(b.traceOut, func(w io.Writer) error { return p.rec[matmul.Phase2D].WritePerfetto(w, pes) }); err != nil {
			return err
		}
	}

	// Kernel probes.
	nb := spec.n / spec.bs
	blockNS, blockAllocs, blockN := blockProbe(spec.bs)
	r.set("matrix.block_muladd_ns", blockNS, blockN, fmt.Sprintf("BS=%d", spec.bs))
	r.set("matrix.block_muladd_allocs", blockAllocs, blockN, "")
	bs := float64(spec.bs)
	r.set("matrix.block_gflops", 2*bs*bs*bs/blockNS, blockN, "")
	kernelMS := float64(nb*nb*nb) * blockNS / 1e6
	r.set("matrix.kernel_ms_per_solve", kernelMS, 0, fmt.Sprintf("%d block products", nb*nb*nb))
	r.set("matrix.kernel_share_seq", kernelMS/seq, 0, "")
	r.set("matmul.serial_share", (seq-kernelMS)/seq, 0, "")

	a, bm := matmul.Inputs(p.cfg)
	var full, inputs []float64
	for i := 0; i < 3; i++ {
		begin := time.Now()
		matmul.Inputs(p.cfg)
		inputs = append(inputs, ms(time.Since(begin)))
		begin = time.Now()
		matrix.Mul(a, bm)
		full = append(full, ms(time.Since(begin)))
	}
	n3 := float64(spec.n) * float64(spec.n) * float64(spec.n)
	r.set("matrix.mul_full_ms", median(full), len(full), "")
	r.set("matrix.mul_full_gflops", 2*n3/(median(full)*1e6), len(full), "")
	r.set("matmul.inputs_ms", median(inputs), len(inputs), "")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := p.solve(paperRun{stage: matmul.Sequential}); err != nil {
		return err
	}
	runtime.ReadMemStats(&after)
	r.set("matmul.alloc_mb_per_solve", float64(after.TotalAlloc-before.TotalAlloc)/(1<<20), 1, "one Sequential run")

	// Runtime probes, and what the counted calls of one solve cost at
	// those prices. The goroutine backend emits zero-length compute
	// events and no wait events, so PE occupancy is computed from the
	// kernel probe, not read off the trace.
	hopNS, eventNS, injectNS := navpProbes(spec.p)
	r.set("navp.hop_ns", hopNS, navpProbeHops, "")
	r.set("navp.event_ns", eventNS, 2*navpProbeEvents, "")
	r.set("navp.inject_ns", injectNS, navpProbeInjects, "")
	cores := runtime.GOMAXPROCS(0)
	for _, st := range []matmul.Stage{matmul.Phase1D, matmul.Phase2D} {
		name, pes := "phase1d", spec.p
		if st == matmul.Phase2D {
			name, pes = "phase2d", spec.p*spec.p
		}
		snap := p.reg[st].Snapshot()
		hops, waits, injects := snap.Counter(navp.MetricHops), snap.Counter(navp.MetricWaits), snap.Counter(navp.MetricInjects)
		r.set("navp.hops_per_solve."+name, float64(hops), 1, "")
		r.set("navp.waits_per_solve."+name, float64(waits), 1, "")
		runtimeMS := (float64(hops)*hopNS + float64(waits)*eventNS + float64(injects)*injectNS) / 1e6
		r.set("navp.runtime_ms_per_solve."+name, runtimeMS, 0,
			fmt.Sprintf("%d hops, %d waits, %d injects", hops, waits, injects))
		usable := pes
		if cores < usable {
			usable = cores
		}
		peTime := float64(usable) * p50(st)
		r.set("navp.pe_busy_ratio."+name, kernelMS/peTime, 0, fmt.Sprintf("%d PEs on %d cores", pes, cores))
		r.set("navp.wait_share."+name, 1-(kernelMS+runtimeMS)/peTime, 0, "")
	}
	return nil
}

// blockProbe times matrix.MulAdd on bs x bs blocks on this goroutine.
func blockProbe(bs int) (nsPerOp, allocsPerOp float64, n int) {
	rng := matrix.NewSeeded(1)
	mk := func() *matrix.Block {
		blk := matrix.NewBlock(0, 0, bs, bs)
		for i := range blk.Data {
			blk.Data[i] = rng.Float64()
		}
		return blk
	}
	a, bb, c := mk(), mk(), mk()
	nsPerOp, allocsPerOp, n, _ = timeOp(400*time.Millisecond, func() error {
		matrix.MulAdd(c, a, bb)
		return nil
	})
	return nsPerOp, allocsPerOp, n
}

const (
	navpProbeHops    = 200_000
	navpProbeEvents  = 20_000
	navpProbeInjects = 20_000
)

// navpProbes prices the goroutine backend's three runtime calls: a hop
// of an empty agent round p nodes, an event hand-off between two
// agents on one node, and an inject of a child that finishes at once.
func navpProbes(p int) (hopNS, eventNS, injectNS float64) {
	// Inject's error is only "already ran"; these systems are fresh.
	timeRun := func(sys *navp.System) time.Duration {
		begin := time.Now()
		if err := sys.Run(); err != nil {
			panic(err) // a fresh goroutine-backed system cannot refuse to run
		}
		return time.Since(begin)
	}

	sys := navp.NewReal(navp.Config{}, p)
	sys.Inject(0, "hopper", func(ag *navp.Agent) {
		for i := 1; i <= navpProbeHops; i++ {
			ag.Hop(i % p)
		}
	})
	hopNS = float64(timeRun(sys)) / navpProbeHops

	sys = navp.NewReal(navp.Config{}, p)
	sys.Inject(0, "ping", func(ag *navp.Agent) {
		for i := 0; i < navpProbeEvents; i++ {
			ag.SignalEvent("ping")
			ag.WaitEvent("pong")
		}
	})
	sys.Inject(0, "pong", func(ag *navp.Agent) {
		for i := 0; i < navpProbeEvents; i++ {
			ag.WaitEvent("ping")
			ag.SignalEvent("pong")
		}
	})
	eventNS = float64(timeRun(sys)) / (2 * navpProbeEvents)

	sys = navp.NewReal(navp.Config{}, p)
	sys.Inject(0, "injector", func(ag *navp.Agent) {
		for i := 0; i < navpProbeInjects; i++ {
			ag.Inject("child", func(*navp.Agent) {})
		}
	})
	injectNS = float64(timeRun(sys)) / navpProbeInjects
	return hopNS, eventNS, injectNS
}
