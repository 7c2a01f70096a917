package sched

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/metrics"
	"repro/internal/wire"
)

// Config configures a Scheduler.
type Config struct {
	// Cluster is the shared cluster backend jobs run on — an in-process
	// wire.Cluster or a wire.RemoteCluster over real daemon processes.
	// Required.
	Cluster Backend
	// Workers is the number of jobs run concurrently (default 4).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond it get
	// ErrQueueFull (default 64).
	QueueDepth int
	// Placement chooses each job's base PE; nil means a default
	// ConsistentHash. It is bound to this scheduler's load gauges.
	Placement *ConsistentHash
	// AttemptTimeout bounds one attempt of a job with no deadline of
	// its own (default 30s).
	AttemptTimeout time.Duration
	// DrainTimeout bounds how long cleanup waits for a cancelled
	// attempt's agents to drain from the cluster (default 10s).
	DrainTimeout time.Duration
	// ReapInterval is the background reaper's cadence: namespaces whose
	// post-attempt drain hit DrainTimeout are retried at this interval
	// until they drain and release (default 1s). Before the reaper, a
	// timed-out drain leaked its namespace forever.
	ReapInterval time.Duration
}

// retain bounds how many terminal job records are kept for Status and
// Result queries; beyond it the oldest are forgotten. This is what
// keeps a long-serving scheduler's memory flat.
const retain = 256

// maxAttempts is a job's lifetime attempt budget, retries and resumed
// attempts together: namespace gives each attempt one byte, 1..255.
const maxAttempts = 255

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Placement == nil {
		c.Placement = &ConsistentHash{}
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.ReapInterval <= 0 {
		c.ReapInterval = time.Second
	}
	return c
}

// job is the scheduler's record of one submission. All fields past the
// immutable header are guarded by the scheduler's mutex.
type job struct {
	id        uint64
	spec      Spec
	submitted time.Time
	deadline  time.Time // zero when the spec had none

	state     State
	base      int
	attempts  int
	errMsg    string
	result    any
	consumed  bool
	cancelled bool
	curNS     uint64        // live wire namespace of the running (or suspended) attempt
	resumeNS  uint64        // frozen namespace a resumed job should continue in
	done      chan struct{} // closed at the terminal transition
}

// Scheduler runs submitted jobs over a worker pool and a shared wire
// cluster. See the package comment for the serving model and DESIGN.md
// §12 for the architecture.
type Scheduler struct {
	cfg   Config
	met   *schedMetrics
	nodes int

	mu      sync.Mutex
	cond    *sync.Cond
	queue   jobQueue
	jobs    map[uint64]*job
	retired []uint64 // terminal job ids, oldest first (retention ring)
	reaps   []uint64 // namespaces whose drain timed out, pending re-reap
	nextID  uint64
	closed  bool
	stop    chan struct{} // closes on Close; halts the reaper
	wg      sync.WaitGroup
}

// New starts a scheduler, its workers and its reaper. The scheduler's
// metrics go to the cluster's registry, so wire.* and sched.* share one
// /metrics surface.
func New(cfg Config) (*Scheduler, error) {
	if cfg.Cluster == nil {
		return nil, errors.New("sched: Config.Cluster is required")
	}
	cfg = cfg.withDefaults()
	nodes := cfg.Cluster.Size()
	s := &Scheduler{
		cfg:   cfg,
		met:   newSchedMetrics(cfg.Cluster.Metrics(), nodes),
		nodes: nodes,
		jobs:  map[uint64]*job{},
		stop:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	if cfg.Placement.met == nil {
		cfg.Placement.met = s.met
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.reaper()
	return s, nil
}

// Submit admits a job. It returns the job id, ErrQueueFull when the
// admission queue is at capacity (backpressure — retry later), or
// ErrClosed after Close.
func (s *Scheduler) Submit(spec Spec) (uint64, error) {
	if spec.Work == nil {
		return 0, fmt.Errorf("sched: submission without work")
	}
	if spec.Retries < 0 {
		spec.Retries = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	if s.queue.Len() >= s.cfg.QueueDepth {
		s.met.admitRejected.Inc()
		return 0, ErrQueueFull
	}
	s.nextID++
	j := &job{
		id:        s.nextID,
		spec:      spec,
		submitted: time.Now(),
		state:     StateQueued,
		base:      -1,
		done:      make(chan struct{}),
	}
	if spec.Deadline > 0 {
		j.deadline = j.submitted.Add(spec.Deadline)
	}
	s.jobs[j.id] = j
	s.queue.push(j)
	s.met.queueDepth.Set(int64(s.queue.Len()))
	s.met.states[StateQueued].Add(1)
	s.cond.Signal()
	return j.id, nil
}

// Status reports a job's current snapshot. Records of terminal jobs
// are retained up to retain; older ones return ErrUnknownJob.
func (s *Scheduler) Status(id uint64) (Status, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return Status{}, ErrUnknownJob
	}
	return s.statusLocked(j), nil
}

// Jobs lists every retained job's status, oldest submission first. Its
// cost, and how long it holds the lock against Submit and the workers,
// is bounded by retain plus the live jobs.
func (s *Scheduler) Jobs() []Status {
	s.mu.Lock()
	out := make([]Status, 0, len(s.jobs))
	for _, j := range s.jobs {
		out = append(out, s.statusLocked(j))
	}
	s.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].ID < out[b].ID })
	return out
}

func (s *Scheduler) statusLocked(j *job) Status {
	return Status{
		ID:       j.id,
		State:    j.state.String(),
		Priority: j.spec.Priority,
		Kind:     j.spec.Work.Kind(),
		Base:     j.base,
		Attempts: j.attempts,
		Error:    j.errMsg,
		Age:      time.Since(j.submitted),
	}
}

// Result retrieves a finished job's result, exactly once: the first
// call returns it and releases it; later calls get ErrResultConsumed.
// Failed and evicted jobs report their error instead; unfinished jobs
// get ErrNotDone.
func (s *Scheduler) Result(id uint64) (any, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	switch j.state {
	case StateDone:
		if j.consumed {
			return nil, ErrResultConsumed
		}
		j.consumed = true
		res := j.result
		j.result = nil // release; the record stays for Status
		return res, nil
	case StateFailed, StateEvicted:
		return nil, fmt.Errorf("sched: job %d %s: %s", id, j.state, j.errMsg)
	default:
		return nil, ErrNotDone
	}
}

// Cancel evicts a job: immediately when still queued; by cancelling its
// wire namespace when running, which retires its agents at their next
// dispatch and lets the attempt's quiescence wait observe the drain.
// Cancelling a terminal job is a no-op.
func (s *Scheduler) Cancel(id uint64) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if j.state.Terminal() {
		s.mu.Unlock()
		return nil
	}
	j.cancelled = true
	ns := j.curNS
	orphaned := false
	switch j.state {
	case StateQueued:
		// Still in the heap; finish now, the popping worker skips
		// terminal jobs. A resumed job carries a frozen namespace that
		// no worker will claim once the record is terminal.
		if j.resumeNS != 0 {
			ns, orphaned = j.resumeNS, true
			j.resumeNS = 0
		}
		s.finishLocked(j, StateEvicted, "cancelled while queued")
	case StateSuspended:
		// No worker owns a suspended job; evict it here and hand its
		// frozen namespace to the reaper (the cancel below thaws it, so
		// its agents retire at their next dispatch).
		j.curNS = 0
		orphaned = true
		s.finishLocked(j, StateEvicted, "cancelled while suspended")
	}
	s.mu.Unlock()
	if ns != 0 {
		s.cfg.Cluster.CancelJob(ns)
		if orphaned {
			s.enqueueReap(ns)
		}
	}
	return nil
}

// Done returns a channel closed when the job reaches a terminal state
// (for callers that prefer blocking to polling).
func (s *Scheduler) Done(id uint64) (<-chan struct{}, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return j.done, nil
}

// Metrics returns the scheduler's registry.
func (s *Scheduler) Metrics() *metrics.Registry { return s.met.reg }

// Close stops admission, evicts everything still queued or suspended,
// and waits for running jobs to reach a terminal state. Idempotent.
func (s *Scheduler) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for {
		j := s.queue.pop()
		if j == nil {
			break
		}
		if !j.state.Terminal() {
			s.finishLocked(j, StateEvicted, "scheduler closed")
		}
	}
	// Suspended jobs have no worker to observe the shutdown; evict them
	// and cancel their frozen namespaces so the agents retire.
	var orphans []uint64
	for _, j := range s.jobs {
		if j.state == StateSuspended {
			if j.curNS != 0 {
				orphans = append(orphans, j.curNS)
				j.curNS = 0
			}
			s.finishLocked(j, StateEvicted, "scheduler closed")
		}
	}
	s.met.queueDepth.Set(0)
	s.cond.Broadcast()
	s.mu.Unlock()
	for _, ns := range orphans {
		s.cfg.Cluster.CancelJob(ns)
	}
	close(s.stop)
	s.wg.Wait()
}

// finishLocked moves a job to a terminal state, records its end-to-end
// latency, wakes waiters, and applies the retention bound.
func (s *Scheduler) finishLocked(j *job, st State, errMsg string) {
	s.met.transition(j.state, st)
	j.state = st
	j.errMsg = errMsg
	s.met.e2eLatency.Observe(time.Since(j.submitted).Microseconds())
	close(j.done)
	s.retired = append(s.retired, j.id)
	for len(s.retired) > retain {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
}

// worker claims queued jobs and runs them to a terminal state.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for !s.closed && s.queue.Len() == 0 {
			s.cond.Wait()
		}
		j := s.queue.pop()
		if j == nil { // closed and drained
			s.mu.Unlock()
			return
		}
		s.met.queueDepth.Set(int64(s.queue.Len()))
		if j.state.Terminal() { // cancelled while queued
			s.mu.Unlock()
			continue
		}
		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			s.finishLocked(j, StateEvicted, "deadline exceeded while queued")
			s.mu.Unlock()
			continue
		}
		// A resumed job keeps its base PE: its frozen agents and node
		// variables live in the old attempt's placement, so moving the
		// base would orphan the data the resumed attempt collects.
		if j.resumeNS == 0 || j.base < 0 {
			j.base = s.place(j)
		}
		// Count the load before the next worker places: the bounded-load
		// cap only spreads concurrent jobs if it sees this one.
		s.met.addLoad(j.base, 1)
		s.met.transition(StateQueued, StatePlaced)
		j.state = StatePlaced
		s.mu.Unlock()
		s.run(j)
		s.met.addLoad(j.base, -1)
	}
}

// place chooses a job's base PE: keyed by the job id, so a resubmitted
// job lands on the same base as long as loads allow, then steered off
// nodes the backend's liveness prober has declared dead. The steer is
// advisory: a stale verdict costs one failed attempt, which the retry
// budget absorbs.
func (s *Scheduler) place(j *job) int {
	base := s.cfg.Placement.PlaceKey(j.id, s.nodes)
	for probe := 0; probe < s.nodes && !s.cfg.Cluster.Alive(base); probe++ {
		base = (base + 1) % s.nodes
	}
	return base
}

// namespace returns the wire job namespace of one attempt: the job id
// shifted past an attempt byte, so every attempt of every job is
// globally unique and a trace viewer can decode track "job N" as job
// N>>8, attempt N&0xff. attempt must be below maxAttempts: a larger one
// would carry into the job id's bits.
//
// Minting a namespace obligates the caller to release it (ReleaseJob +
// ClearVarsPrefix, via cleanup) on every exit path — navplint's
// jobrelease analyzer enforces this.
//
//navplint:fact mint
func namespace(id uint64, attempt int) uint64 {
	return id<<8 | uint64(attempt+1)
}

// run executes a claimed job's attempt loop to a terminal state (or to
// suspension, which releases the worker with the job parked on the
// cluster).
func (s *Scheduler) run(j *job) {
	s.mu.Lock()
	s.met.transition(StatePlaced, StateRunning)
	j.state = StateRunning
	resumeNS := j.resumeNS
	j.resumeNS = 0
	s.mu.Unlock()

	var lastErr error
	if resumeNS != 0 {
		// The job was suspended mid-attempt and its namespace thawed at
		// Resume. A Resumer work continues the frozen attempt in place —
		// re-injecting would duplicate its agents, so the resume path only
		// awaits and collects. Other works fall back to cancelling the
		// thawed attempt and retrying fresh below.
		if r, ok := j.spec.Work.(Resumer); ok {
			stop, err := s.attempt(j, resumeNS, r.Resume)
			if stop {
				return
			}
			lastErr = err
		} else {
			s.cleanup(resumeNS, true)
		}
	}
	for try := 0; try <= j.spec.Retries; try++ {
		s.mu.Lock()
		// Mint from the lifetime attempt count, not the loop index: a
		// resumed or re-resumed job has spent attempts this loop never
		// saw, and a namespace collision would let a stale agent complete
		// the wrong attempt.
		if j.attempts >= maxAttempts {
			s.finishLocked(j, StateFailed, fmt.Sprintf("attempt budget exhausted after %d attempts", j.attempts))
			s.mu.Unlock()
			return
		}
		ns := namespace(j.id, j.attempts)
		s.mu.Unlock()
		stop, err := s.attempt(j, ns, j.spec.Work.Run)
		if stop {
			return
		}
		lastErr = err
	}
	s.mu.Lock()
	s.finishLocked(j, StateFailed, fmt.Sprintf("retry budget exhausted: %v", lastErr))
	s.mu.Unlock()
}

// attempt runs one execution of a job under namespace ns. It returns
// stop=true when the job reached a terminal state or suspended (the
// worker is done with it either way); otherwise the attempt failed and
// the caller may retry.
func (s *Scheduler) attempt(j *job, ns uint64, exec func(*Runtime) (any, error)) (stop bool, _ error) {
	s.mu.Lock()
	if j.cancelled {
		s.finishLocked(j, StateEvicted, "cancelled")
		s.mu.Unlock()
		return true, nil
	}
	budget := s.cfg.AttemptTimeout
	if !j.deadline.IsZero() {
		budget = time.Until(j.deadline)
		if budget <= 0 {
			s.finishLocked(j, StateEvicted, "deadline exceeded")
			s.mu.Unlock()
			return true, nil
		}
	}
	j.curNS = ns
	j.attempts++
	if j.attempts > 1 {
		s.met.retries.Inc()
	}
	s.mu.Unlock()

	rt := &Runtime{Cluster: s.cfg.Cluster, Job: ns, Base: j.base, Timeout: budget}
	res, err := exec(rt)

	if err != nil && errors.Is(err, wire.ErrJobFrozen) {
		s.mu.Lock()
		if !j.cancelled {
			// Suspend caught the attempt: the namespace's agents are
			// checkpointed and parked, so the worker walks away WITHOUT
			// cleanup — releasing counters or variables under a frozen
			// attempt would destroy the state Resume continues from.
			// curNS stays set; Cancel and Resume both know to find it.
			s.met.transition(StateRunning, StateSuspended)
			j.state = StateSuspended
			s.met.suspends.Inc()
			s.mu.Unlock()
			return true, nil
		}
		s.mu.Unlock()
	}

	s.cleanup(ns, err != nil)

	s.mu.Lock()
	defer s.mu.Unlock()
	j.curNS = 0
	if j.cancelled {
		s.finishLocked(j, StateEvicted, "cancelled")
		return true, nil
	}
	if err == nil {
		j.result = res
		s.finishLocked(j, StateDone, "")
		return true, nil
	}
	if !j.deadline.IsZero() && !time.Now().Before(j.deadline) {
		s.finishLocked(j, StateEvicted, fmt.Sprintf("deadline exceeded (last attempt: %v)", err))
		return true, nil
	}
	return false, err
}

// cleanup reclaims one attempt's cluster footprint. A failed (or timed
// out) attempt may have live agents mid-flight: cancel the namespace so
// they retire at their next dispatch, wait for the drain, and only then
// release the counter slices and the node variables written under the
// attempt's prefix — reclaiming either under live agents would let a
// straggler resurrect partial counter state or panic on a vanished
// variable. An undrained namespace is handed to the background reaper,
// which keeps retrying the drain until it succeeds — before the reaper
// existed, a timed-out drain leaked its namespace (counter slices,
// cancellation mark, node variables) forever.
func (s *Scheduler) cleanup(ns uint64, failed bool) {
	cl := s.cfg.Cluster
	if failed {
		cl.CancelJob(ns)
		if cl.WaitJob(ns, s.cfg.DrainTimeout) != nil {
			s.enqueueReap(ns)
			return
		}
	}
	cl.ReleaseJob(ns)
	cl.ClearVarsPrefix(jobPrefix(ns))
}

// enqueueReap hands an undrained namespace to the background reaper:
// the mint-to-release obligation transfers with it — the reaper's
// pass, not the enqueuing path, performs the eventual ReleaseJob.
//
//navplint:fact handoff
func (s *Scheduler) enqueueReap(ns uint64) {
	s.mu.Lock()
	s.reaps = append(s.reaps, ns)
	s.met.drainPending.Set(int64(len(s.reaps)))
	s.mu.Unlock()
}

// reaper retries the drain of namespaces cleanup gave up on. Each tick
// it re-cancels (idempotent; keeps stragglers retiring even if the mark
// was somehow lost), waits one interval for quiescence, and on success
// releases the namespace's counters and variables — the reclamation the
// timed-out cleanup never got to.
func (s *Scheduler) reaper() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
		}
		s.mu.Lock()
		pending := append([]uint64(nil), s.reaps...)
		s.mu.Unlock()
		if len(pending) == 0 {
			continue
		}
		cl := s.cfg.Cluster
		reaped := map[uint64]bool{}
		for _, ns := range pending {
			cl.CancelJob(ns)
			if cl.WaitJob(ns, s.cfg.ReapInterval) != nil {
				continue
			}
			cl.ReleaseJob(ns)
			cl.ClearVarsPrefix(jobPrefix(ns))
			s.met.drainReaped.Inc()
			reaped[ns] = true
		}
		if len(reaped) == 0 {
			continue
		}
		// Filter rather than overwrite: enqueueReap may have appended
		// namespaces this pass never saw.
		s.mu.Lock()
		kept := s.reaps[:0]
		for _, ns := range s.reaps {
			if !reaped[ns] {
				kept = append(kept, ns)
			}
		}
		s.reaps = kept
		s.met.drainPending.Set(int64(len(s.reaps)))
		s.mu.Unlock()
	}
}

// Suspend preempts a running job: its wire namespace freezes, so every
// agent checkpoints and parks at its next hop boundary, the attempt's
// WaitJob fails fast with the frozen sentinel, and the worker releases
// the job in StateSuspended with the namespace intact on the cluster.
func (s *Scheduler) Suspend(id uint64) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if j.state != StateRunning || j.curNS == 0 {
		s.mu.Unlock()
		return ErrNotSuspendable
	}
	ns := j.curNS
	s.mu.Unlock()
	return s.cfg.Cluster.FreezeJob(ns)
}

// Resume requeues a suspended job: the frozen namespace thaws (parked
// agents re-dispatch from their checkpoints) and the job goes back
// through the queue to a worker, which continues the thawed attempt via
// the work's Resumer extension when it has one.
func (s *Scheduler) Resume(id uint64) error {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return ErrUnknownJob
	}
	if j.state != StateSuspended || j.curNS == 0 {
		s.mu.Unlock()
		return ErrNotSuspended
	}
	ns := j.curNS
	s.mu.Unlock()
	if err := s.cfg.Cluster.ThawJob(ns); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if j.state != StateSuspended { // raced with Cancel or Close
		return ErrNotSuspended
	}
	if s.closed {
		return ErrClosed
	}
	j.resumeNS = ns
	j.curNS = 0
	s.met.transition(StateSuspended, StateQueued)
	j.state = StateQueued
	s.queue.push(j)
	s.met.queueDepth.Set(int64(s.queue.Len()))
	s.met.resumes.Inc()
	s.cond.Signal()
	return nil
}

// DrainNode evacuates a cluster member through the backend: its resident
// agents migrate to survivors, its counter history is absorbed, and the
// node leaves the membership — future placements steer around it.
func (s *Scheduler) DrainNode(node int, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = s.cfg.DrainTimeout
	}
	return s.cfg.Cluster.DrainNode(node, timeout)
}

// Refresh adopts cluster growth: the backend re-reads its membership
// (wire.RemoteCluster.Refresh discovers daemons that joined mid-run),
// and the scheduler widens its placement range and load gauges to match.
// Shrink is handled by drain, not here — gauges never contract.
func (s *Scheduler) Refresh() error {
	if err := s.cfg.Cluster.Refresh(); err != nil {
		return err
	}
	n := s.cfg.Cluster.Size()
	s.met.ensureNodes(n)
	s.mu.Lock()
	if n > s.nodes {
		s.nodes = n
	}
	s.mu.Unlock()
	return nil
}
