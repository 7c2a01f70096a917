package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/sched"
)

// The serving workloads: sched.WireMatmul{N: 16} jobs through a
// scheduler in this process (Workers=8, QueueDepth=64, ConsistentHash)
// onto daemons that are real OS processes with state directories.
const (
	jobN        = 16
	jobTimeout  = 30 * time.Second
	warmupJobs  = 5
	deadWindow  = 100 * time.Millisecond
	killPeriod  = time.Second
	setupRounds = 3
)

type serveSpec struct {
	daemons   int
	kills     bool
	pacedRate float64 // open-loop arrivals per second, about 40 % of duo capacity
}

func runServeP1(b *bench) error { return runServe(b, serveSpec{daemons: 1, pacedRate: 16}) }
func runServeP4(b *bench) error { return runServe(b, serveSpec{daemons: 4, pacedRate: 5}) }
func runServeKill(b *bench) error {
	return runServe(b, serveSpec{daemons: 3, kills: true})
}

// server is one set-up serving stack.
type server struct {
	b       *bench
	cl      *cluster
	s       *sched.Scheduler
	rec     *spanRecorder // nil on an untraced run
	retries int
	epoch   time.Time
	seeds   atomic.Int64
}

func (sv *server) clock() time.Duration { return time.Since(sv.epoch) }

// startServer spawns the daemons, dials them, starts the scheduler,
// runs the warm-up jobs and settles the daemons (see settle). With traced set the scheduler runs on the
// span-recording backend, switched off until a phase turns it on.
func startServer(b *bench, spec serveSpec, traced bool) (*server, error) {
	cl, err := startCluster(spec.daemons)
	if err != nil {
		return nil, err
	}
	sv := &server{b: b, cl: cl, epoch: time.Now()}
	sv.seeds.Store(b.seed * 1_000_003)
	cfg := sched.Config{Workers: 8, QueueDepth: 64, Placement: &sched.ConsistentHash{}}
	if spec.kills {
		// An attempt stranded by a kill has to fail and retry inside the
		// phase, not sit out the 30 s default.
		sv.retries = 3
		cfg.AttemptTimeout = 5 * time.Second
		cfg.DrainTimeout = 2 * time.Second
	}
	if traced {
		sv.rec = newSpanRecorder()
		sv.epoch = sv.rec.epoch
		cfg.Cluster = &tracedCluster{RemoteCluster: cl.rc, rec: sv.rec}
	} else {
		cfg.Cluster = cl.rc
	}
	if sv.s, err = sched.New(cfg); err != nil {
		cl.close()
		return nil, err
	}
	for i := 0; i < warmupJobs; i++ {
		if _, err := sv.runJob(-1); err != nil {
			sv.close()
			return nil, fmt.Errorf("warm-up job: %w", err)
		}
	}
	if err := sv.settle(); err != nil {
		sv.close()
		return nil, fmt.Errorf("settle: %w", err)
	}
	return sv, nil
}

func (sv *server) close() {
	sv.s.Close()
	sv.cl.close()
}

// errWrongResult marks a job that finished with the wrong product.
var errWrongResult = errors.New("wrong result")

// runJob submits one job, waits for it, retrieves the result and checks
// it against the recomputed product. Latency counts from the run-clock
// instant from, or from the submission when from is negative; the
// check is outside it.
func (sv *server) runJob(from time.Duration) (jobSample, error) {
	seed := sv.seeds.Add(1)
	submit := sv.clock()
	if from < 0 {
		from = submit
	}
	js := jobSample{submit: submit}
	id, err := sv.s.Submit(sched.Spec{Work: sched.WireMatmul{N: jobN, Seed: seed}, Retries: sv.retries})
	if err != nil {
		return js, fmt.Errorf("submit: %w", err)
	}
	ch, err := sv.s.Done(id)
	if err != nil {
		return js, err
	}
	select {
	case <-ch:
	case <-time.After(jobTimeout):
		return js, fmt.Errorf("job %d not terminal after %v", id, jobTimeout)
	}
	res, err := sv.s.Result(id)
	js.done = sv.clock()
	js.latencyMS = ms(js.done - from)
	if st, serr := sv.s.Status(id); serr == nil {
		js.attempts = st.Attempts
	}
	if err != nil {
		return js, err
	}
	if sv.rec != nil && sv.rec.on.Load() {
		sv.rec.add("job", id, submit, js.done)
	}
	if err := checkWirematmul(res, jobN, seed); err != nil {
		return js, fmt.Errorf("job %d: %w: %v", id, errWrongResult, err)
	}
	return js, nil
}

// load is what one phase of generated load produced.
type load struct {
	jobs    []jobSample // verified jobs only
	elapsed time.Duration

	mu sync.Mutex
	tally
	rejected int // refused by admission, among the failed
}

func (l *load) record(js jobSample, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.attempted++
	if err == nil {
		l.jobs = append(l.jobs, js)
		return
	}
	l.failed++
	if errors.Is(err, sched.ErrQueueFull) {
		l.rejected++
	}
	if errors.Is(err, errWrongResult) {
		l.wrong++
	}
	if l.firstErr == nil {
		l.firstErr = err
	}
}

func (l *load) jobsPerSecond() float64 { return float64(len(l.jobs)) / l.elapsed.Seconds() }

func (l *load) retriesPerJob() float64 {
	if len(l.jobs) == 0 {
		return 0
	}
	extra := 0
	for _, j := range l.jobs {
		extra += j.attempts - 1
	}
	return float64(extra) / float64(len(l.jobs))
}

// closedLoop runs clients closed-loop clients for dur: each submits its
// next job only when the previous one has returned a checked result.
func (sv *server) closedLoop(clients int, dur time.Duration) *load {
	l := &load{}
	begin := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(begin) < dur && !sv.b.abandoned.Load() {
				js, err := sv.runJob(-1)
				l.record(js, err)
				if err != nil {
					time.Sleep(10 * time.Millisecond) // a broken cluster must not spin the client
				}
			}
		}()
	}
	wg.Wait()
	l.elapsed = time.Since(begin)
	sv.b.add(l.tally)
	return l
}

// paced is the open-loop phase: arrivals on the seed's Poisson
// schedule whatever the system does, each timed from when it was due.
func (sv *server) paced(rate float64, dur time.Duration) (l *load, meanLate, worstLate time.Duration) {
	due := poissonSchedule(sv.b.seed, rate, dur)
	submitted := make([]time.Duration, len(due))
	l = &load{}
	start, begin := sv.clock(), time.Now()
	var wg sync.WaitGroup
	for i, d := range due {
		if sv.b.abandoned.Load() {
			break
		}
		if wait := d - time.Since(begin); wait > 0 {
			time.Sleep(wait)
		}
		submitted[i] = time.Since(begin)
		wg.Add(1)
		go func(from time.Duration) {
			defer wg.Done()
			l.record(sv.runJob(from))
		}(start + d)
	}
	wg.Wait()
	l.elapsed = time.Since(begin)
	sv.b.add(l.tally)
	meanLate, worstLate = lateness(due, submitted)
	return l, meanLate, worstLate
}

// killer kills and respawns the last daemon on the seed's schedule
// while a phase runs. stop it, then read what it did.
type killer struct {
	instants  []time.Duration // kill instants on the run clock
	respawnMS []float64
	err       error
	quit      chan struct{}
	done      chan struct{}
}

func (sv *server) startKiller(period, dur time.Duration) *killer {
	k := &killer{quit: make(chan struct{}), done: make(chan struct{})}
	plan := killSchedule(sv.b.seed, period, dur)
	begin := time.Now()
	go func() {
		defer close(k.done)
		for _, at := range plan {
			select {
			case <-k.quit:
				return
			case <-time.After(at - time.Since(begin)):
			}
			k.instants = append(k.instants, sv.clock())
			took, err := sv.cl.respawnLast(deadWindow)
			if err != nil {
				k.err = err
				return
			}
			k.respawnMS = append(k.respawnMS, ms(took))
		}
	}()
	return k
}

func (k *killer) stop() error {
	close(k.quit)
	<-k.done
	return k.err
}

// selfCPU is this process's CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func runServe(b *bench, spec serveSpec) error {
	if b.traced {
		return serveLayers(b, spec)
	}
	return serveEndToEnd(b, spec)
}

// serveEndToEnd is the untraced run: set up (several times, the median
// is the metric), then one closed-loop client, then two.
func serveEndToEnd(b *bench, spec serveSpec) error {
	var sv *server
	var setups []float64
	for round := 0; round < setupRounds && !b.abandoned.Load(); round++ {
		if sv != nil {
			sv.close()
		}
		begin := b.setupStart()
		var err error
		if sv, err = startServer(b, spec, false); err != nil {
			return err
		}
		setups = append(setups, time.Since(begin).Seconds())
	}
	if sv == nil {
		return errDeadline
	}
	defer sv.close()
	b.res.set("setup_s", median(setups), len(setups), "")

	soloShare, duoShare := 0.4, 0.6
	if spec.kills {
		soloShare, duoShare = 0.2, 0.8
	}
	solo := sv.closedLoop(1, b.share(soloShare))
	b.res.set("solo_p50_ms", median(latencies(solo.jobs)), len(solo.jobs), "")

	var k *killer
	if spec.kills {
		k = sv.startKiller(killPeriod, b.share(duoShare))
	}
	duo := sv.closedLoop(2, b.share(duoShare))
	lat := latencies(duo.jobs)
	b.res.set("duo_p50_ms", median(lat), len(lat), fmt.Sprintf("%.1f jobs/s", duo.jobsPerSecond()))
	if !spec.kills {
		b.res.set("stress_ms", percentile(lat, 0.90), len(lat), tailNote(len(lat), 0.90))
		return nil
	}
	if err := k.stop(); err != nil {
		return err
	}
	hit, _ := splitByKills(duo.jobs, k.instants)
	if len(hit) == 0 {
		return fmt.Errorf("%d kills struck no job", len(k.instants))
	}
	// The mean, not the median: a struck job either rides out the outage
	// on the hop sender's retries (~200 ms) or fails its attempt and
	// runs again (~350 ms), and the median of thirty such samples flips
	// between the two humps from run to run.
	b.res.set("stress_ms", mean(hit), len(hit), fmt.Sprintf("%d kills", len(k.instants)))
	return nil
}

// tailNote flags a tail percentile that its sample count cannot carry.
func tailNote(n int, p float64) string {
	if tailRule(n, p) {
		return ""
	}
	return fmt.Sprintf("fewer than 10 samples beyond p%.0f; n supports p%.0f", p*100, highestTail(n)*100)
}

// soloSlices is how many slices the solo phase of the traced run is cut
// into, untraced and traced alternately. Latency drifts by more than
// tracing costs (settle removes the worst of it, not all), and only
// interleaving keeps the drift out of the traced/untraced ratio.
const soloSlices = 6

// serveLayers is the traced run: a solo phase alternating untraced and
// traced slices (their ratio is the tracing overhead), a traced duo
// phase, the open-loop phase, then the probes.
func serveLayers(b *bench, spec serveSpec) error {
	sv, err := startServer(b, spec, true)
	if err != nil {
		return err
	}
	defer sv.close()
	r := b.res

	var plain, traced []jobSample
	var cpu time.Duration
	for i := 0; i < soloSlices; i++ {
		on := i%2 == 1
		sv.rec.on.Store(on)
		cpu0 := selfCPU()
		l := sv.closedLoop(1, b.share(0.30/soloSlices))
		if on {
			cpu += selfCPU() - cpu0
			traced = append(traced, l.jobs...)
		} else {
			plain = append(plain, l.jobs...)
		}
	}
	sv.rec.on.Store(false)
	soloSpans, soloHops := sv.rec.take()
	if len(plain) == 0 || len(traced) == 0 {
		return fmt.Errorf("solo phase completed no job (first error: %v)", b.firstErr)
	}
	soloP50 := median(latencies(traced))
	r.set("trace.overhead_ratio", soloP50/median(latencies(plain)), len(traced), "traced solo p50 / untraced solo p50")
	r.set("sched.frontend_cpu_ms_per_job", ms(cpu)/float64(len(traced)), len(traced), "")

	bd := analyse(soloSpans, soloHops)
	for _, g := range []string{"inject", "waitjob", "getvar", "setvar", "cleanup"} {
		r.set("wire."+g+"_share", bd.share[g], bd.jobs, "")
	}
	r.set("sched.self_share", bd.share["self"], bd.jobs, "")
	for name, metric := range map[string]string{
		"InjectJob": "wire.inject_p50_ms", "WaitJob": "wire.waitjob_p50_ms", "GetVar": "wire.getvar_p50_ms",
		"SetVar": "wire.setvar_p50_ms", "ReleaseJob": "wire.release_p50_ms", "ClearVarsPrefix": "wire.clearvars_p50_ms",
	} {
		r.set(metric, median(bd.durationsMS[name]), len(bd.durationsMS[name]), "")
	}
	r.set("wire.inject_per_job", bd.callsPerJob["InjectJob"], bd.jobs, "")
	r.set("wire.getvar_per_job", bd.callsPerJob["GetVar"], bd.jobs, "")
	r.set("wire.setvar_per_job", bd.callsPerJob["SetVar"], bd.jobs, "")
	note := ""
	if bd.unevenCounts {
		note = "jobs differed in their call counts"
	}
	r.set("wire.ctl_calls_per_job", bd.ctlPerJob, bd.jobs, note)
	r.set("wire.hops_per_job", bd.hopsPerJob, bd.jobs, "")
	// The contrast the p1/p4 pair exists for: a carrier ring over d
	// daemons makes d-1 inter-daemon hops, so N carriers make N(d-1).
	if want := float64(jobN * (spec.daemons - 1)); !spec.kills && bd.hopsPerJob != want {
		return fmt.Errorf("jobs made %.2f inter-daemon hops each, the rings of %d daemons should give %.0f", bd.hopsPerJob, spec.daemons, want)
	}

	// Traced duo phase: dispatch delay, scaling, and what the daemon
	// processes burn per job. serve-kill runs it under kills.
	duoShare := 0.2
	var k *killer
	if spec.kills {
		duoShare = 0.5
		k = sv.startKiller(killPeriod, b.share(duoShare))
	}
	use0, haveProc := childUsage()
	sv.rec.on.Store(true)
	duo := sv.closedLoop(2, b.share(duoShare))
	sv.rec.on.Store(false)
	use1, _ := childUsage()
	duoSpans, duoHops := sv.rec.take()
	if len(duo.jobs) == 0 {
		return fmt.Errorf("duo phase completed no job (first error: %v)", duo.firstErr)
	}
	dbd := analyse(duoSpans, duoHops)
	n := len(duo.jobs)
	r.set("sched.dispatch_p50_ms", median(dbd.dispatchMS), len(dbd.dispatchMS), "")
	r.set("sched.duo_jobs_per_s", duo.jobsPerSecond(), n, "")
	r.set("sched.duo_scaling", duo.jobsPerSecond()/(1000/soloP50), n, "")
	r.set("sched.retries_per_job", duo.retriesPerJob(), n, "")
	r.set("wire.statedir_bytes", float64(dirBytes(sv.cl.dir)), 1, "")
	if spec.kills {
		if err := k.stop(); err != nil {
			return err
		}
		hit, unhit := splitByKills(duo.jobs, k.instants)
		r.set("sched.unhit_p50_ms", median(unhit), len(unhit), "")
		r.set("sched.hit_p50_ms", median(hit), len(hit), fmt.Sprintf("%d kills", len(k.instants)))
		r.set("wire.respawn_p50_ms", median(k.respawnMS), len(k.respawnMS), "")
	} else if haveProc {
		// Under kills the children change identity mid-phase, so the
		// /proc deltas would mix incarnations.
		r.set("wire.daemon_cpu_ms_per_job", ms(use1.cpu-use0.cpu)/float64(n), n, "")
		r.set("wire.write_bytes_per_job", float64(use1.wchar-use0.wchar)/float64(n), n, "")
	}

	if spec.pacedRate > 0 {
		pl, meanLate, worstLate := sv.paced(spec.pacedRate, b.share(0.25))
		lat := latencies(pl.jobs)
		r.set("sched.paced_p50_ms", median(lat), len(lat), fmt.Sprintf("%.0f arrivals/s offered", spec.pacedRate))
		r.set("sched.paced_p90_ms", percentile(lat, 0.90), len(lat), tailNote(len(lat), 0.90))
		r.set("sched.paced_late_ms", ms(meanLate), pl.attempted, fmt.Sprintf("worst %.2f ms", ms(worstLate)))
		r.set("sched.paced_rejected", float64(pl.rejected), pl.attempted, "")
	}

	if err := sv.probes(); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	b.spans = append(soloSpans, duoSpans...)
	return nil
}
