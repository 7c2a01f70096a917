package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/matmul"
	"repro/internal/navp"
	"repro/internal/wire"
)

// Runtime is what one attempt of a job gets to run with.
type Runtime struct {
	// Cluster is the shared cluster backend — in-process or a remote
	// client over real daemon processes. Work that uses it must scope
	// everything to Job: inject with InjectJob, wait with WaitJob, and
	// prefix node-variable keys with Prefix(), so concurrent tenants
	// (and this job's own earlier half-finished attempts) cannot
	// collide. Nil for schedulers serving only local (simulated) work.
	Cluster Backend
	// Job is this attempt's wire namespace — unique per attempt, not
	// per job, which is what makes retry safe: a retried attempt never
	// shares dedup, checkpoint, or counter state with its predecessor.
	Job uint64
	// Base is the placement anchor: the PE the job's data distribution
	// and injections should rotate from.
	Base int
	// Timeout is the attempt's time budget (the job's remaining
	// deadline, or the scheduler's attempt timeout without one).
	Timeout time.Duration
}

// Prefix returns the node-variable key prefix of this attempt's
// namespace. ClearVarsPrefix(prefix) reclaims everything written
// under it.
func (rt *Runtime) Prefix() string { return jobPrefix(rt.Job) }

func jobPrefix(ns uint64) string { return fmt.Sprintf("j%d:", ns) }

// Work is a job's program.
type Work interface {
	// Kind names the work type in status output and metrics.
	Kind() string
	// Run executes one attempt and returns the job's result. The
	// scheduler owns namespace cleanup; Run only computes.
	Run(rt *Runtime) (any, error)
}

// Resumer is the optional Work extension for jobs that survive
// suspension: Resume continues a thawed attempt whose agents already
// exist on the cluster — it must only await quiescence and collect,
// never re-inject (a second injection would duplicate the attempt's
// agents and corrupt its counters). Works without Resume are restarted
// from scratch in a fresh namespace after a suspend/resume cycle.
type Resumer interface {
	Work
	// Resume finishes the attempt in rt.Job, which was frozen mid-run
	// and has just been thawed.
	Resume(rt *Runtime) (any, error)
}

// WorkFunc adapts a function to Work (tests, custom jobs).
type WorkFunc struct {
	Name string
	Fn   func(rt *Runtime) (any, error)
}

// Kind implements Work.
func (w WorkFunc) Kind() string { return w.Name }

// Run implements Work.
func (w WorkFunc) Run(rt *Runtime) (any, error) { return w.Fn(rt) }

// ---------------------------------------------------------------------
// Wire matmul: the serving workload that actually exercises the shared
// cluster — an integer matmul whose row carriers ride the PE ring, the
// multi-tenant descendant of the chaos-suite program.

// rowCarrierState is the agent state: one row of A riding the cycle.
// Every value it writes is a pure function of the carried row and the
// visited node's B columns, written idempotently, so replays after a
// daemon kill recompute byte-identical results. Ring, when set, is the
// explicit visit order (the live node set at injection, rotated to
// start at the injection node) — on an elastic cluster the agent must
// not ride 0..Nodes()-1, which would route it into drained members.
type rowCarrierState struct {
	Row     int
	Vals    []int64
	Visited int
	Ring    []int
}

// bPart is a node's slice of B for one job: Cols[j] is column Off+j.
type bPart struct {
	Off  int
	Cols [][]int64
}

func init() {
	wire.RegisterState(&rowCarrierState{})
	// bPart crosses the control wire (SetVar to remote daemons), so its
	// concrete type must be gob-registered like any agent state.
	wire.RegisterState(&bPart{})
	wire.Register("sched.rowCarrier", func(ctx *wire.Ctx) wire.Verdict {
		st := ctx.State().(*rowCarrierState)
		pre := jobPrefix(ctx.Job())
		part := ctx.Get(pre + "B").(*bPart)
		c := make([]int64, len(part.Cols))
		for lj, col := range part.Cols {
			for k, a := range st.Vals {
				c[lj] += a * col[k]
			}
		}
		ctx.Set(fmt.Sprintf("%sC:%d", pre, st.Row), c)
		st.Visited++
		if len(st.Ring) > 0 {
			if st.Visited >= len(st.Ring) {
				return ctx.Done()
			}
			return ctx.HopTo(st.Ring[st.Visited])
		}
		if st.Visited >= ctx.Nodes() {
			return ctx.Done()
		}
		return ctx.HopTo((ctx.NodeID() + 1) % ctx.Nodes())
	})
}

// WireMatmul multiplies two deterministic n×n integer matrices on the
// shared wire cluster: each PE holds a contiguous strip of B's columns
// under the job's key prefix, and one carrier agent per row of A visits
// every PE, depositing partial product rows as it goes. Injection
// rotates from the job's base PE so concurrent jobs start their rings
// at different points. The result is self-checked against a locally
// computed reference before it is returned — under chaos, a wrong
// product is an error, never a silently wrong answer.
type WireMatmul struct {
	N    int
	Seed int64
}

// Kind implements Work.
func (w WireMatmul) Kind() string { return "wirematmul" }

// colRange returns the half-open column range owned by pe.
func colRange(n, pes, pe int) (lo, hi int) { return pe * n / pes, (pe + 1) * n / pes }

// liveRing returns the backend's placeable node list: its Elastic view
// when it has one (drained members excluded), every node otherwise.
func liveRing(cl Backend) []int {
	if el, ok := cl.(Elastic); ok {
		if live := el.LiveNodes(); len(live) > 0 {
			return live
		}
	}
	ring := make([]int, cl.Size())
	for i := range ring {
		ring[i] = i
	}
	return ring
}

// fanOutLimit bounds how many of a job's control calls are in flight at
// once. The calls are round trips on pipelined connections that a
// daemon serves one at a time per connection, so depth beyond a few
// dozen buys no more overlap — it only queues — while an unbounded fan
// would turn an order-1024 job into 1024 goroutines and a 1024-deep
// queue, whose tail would wait out the per-call timeout behind its own
// head.
const fanOutLimit = 32

// fanOut calls fn(0) … fn(n-1) concurrently, at most fanOutLimit at a
// time, and returns the first error any call reported. After an error no
// further call is started; every call that was started has returned by
// the time fanOut does.
func fanOut(n int, fn func(i int) error) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	failed := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return first != nil
	}
	sem := make(chan struct{}, fanOutLimit)
	for i := 0; i < n && !failed(); i++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			if err := fn(i); err != nil {
				mu.Lock()
				if first == nil {
					first = err
				}
				mu.Unlock()
			}
		}(i)
	}
	wg.Wait()
	return first
}

// Run implements Work: distribute B over the live nodes, inject the
// row carriers with an explicit visit ring, then await and collect —
// each phase's control calls overlapped (fanOut), one call per strip,
// carrier and row as before, and every strip placed before the first
// carrier is injected, because a carrier may arrive anywhere. On
// an elastic cluster the live set is captured once here: a drain that
// lands mid-attempt can fail this attempt (a missing strip is an
// error, never a wrong answer), and the retry re-plans on the shrunk
// cluster.
func (w WireMatmul) Run(rt *Runtime) (any, error) {
	if rt.Cluster == nil {
		return nil, fmt.Errorf("sched: wirematmul needs a cluster")
	}
	n := w.N
	if n <= 0 {
		return nil, fmt.Errorf("sched: wirematmul order %d must be positive", n)
	}
	live := liveRing(rt.Cluster)
	pes := len(live)
	a, b := intMatrices(n, w.Seed)
	pre := rt.Prefix()
	err := fanOut(pes, func(pe int) error {
		lo, hi := colRange(n, pes, pe)
		cols := make([][]int64, hi-lo)
		for j := lo; j < hi; j++ {
			col := make([]int64, n)
			for k := 0; k < n; k++ {
				col[k] = b[k][j]
			}
			cols[j-lo] = col
		}
		return rt.Cluster.SetVar(live[pe], pre+"B", &bPart{Off: lo, Cols: cols})
	})
	if err != nil {
		return nil, err
	}
	// The base PE anchors the rotation; a base that has since been
	// drained degrades to a deterministic index, not an error.
	b0 := rt.Base % pes
	for i, nd := range live {
		if nd == rt.Base {
			b0 = i
			break
		}
	}
	err = fanOut(n, func(i int) error {
		start := (b0 + i) % pes
		ring := make([]int, pes)
		for k := range ring {
			ring[k] = live[(start+k)%pes]
		}
		st := &rowCarrierState{Row: i, Vals: a[i], Ring: ring}
		return rt.Cluster.InjectJob(ring[0], rt.Job, "sched.rowCarrier", st)
	})
	if err != nil {
		return nil, err
	}
	return w.await(rt, a, b, live)
}

// Resume implements Resumer: the carriers and B strips already live on
// the cluster from the frozen attempt (the inputs are a pure function
// of N and Seed, so the reference is recomputed locally), so resuming
// is awaiting quiescence and collecting — injection is skipped
// entirely. If the live set changed while the job was suspended, the
// collection fails and the scheduler falls back to a fresh attempt.
func (w WireMatmul) Resume(rt *Runtime) (any, error) {
	if rt.Cluster == nil {
		return nil, fmt.Errorf("sched: wirematmul needs a cluster")
	}
	if w.N <= 0 {
		return nil, fmt.Errorf("sched: wirematmul order %d must be positive", w.N)
	}
	a, b := intMatrices(w.N, w.Seed)
	return w.await(rt, a, b, liveRing(rt.Cluster))
}

// await waits for the attempt's agents to drain, collects the product
// from the column strips on the given nodes, and self-checks it
// against a local reference.
func (w WireMatmul) await(rt *Runtime, a, b [][]int64, live []int) (any, error) {
	n := w.N
	pes := len(live)
	pre := rt.Prefix()
	if err := rt.Cluster.WaitJob(rt.Job, rt.Timeout); err != nil {
		return nil, err
	}
	got := make([][]int64, n)
	for i := range got {
		got[i] = make([]int64, n)
	}
	// One GetVar per (row, strip), strips innermost so the calls in flight
	// spread over every member's connection; each writes its own columns
	// of its own row, so the calls share nothing.
	err := fanOut(n*pes, func(k int) error {
		i, pe := k/pes, k%pes
		lo, hi := colRange(n, pes, pe)
		if lo == hi {
			return nil
		}
		v, err := rt.Cluster.GetVar(live[pe], fmt.Sprintf("%sC:%d", pre, i))
		if err != nil {
			return err
		}
		crow, ok := v.([]int64)
		if !ok {
			return fmt.Errorf("sched: wirematmul row %d missing on PE %d after quiescence", i, live[pe])
		}
		copy(got[i][lo:hi], crow)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var want int64
			for k := 0; k < n; k++ {
				want += a[i][k] * b[k][j]
			}
			if got[i][j] != want {
				return nil, fmt.Errorf("sched: wirematmul C[%d][%d] = %d, want %d", i, j, got[i][j], want)
			}
		}
	}
	return got, nil
}

// intMatrices builds the deterministic integer inputs for a seed.
func intMatrices(n int, seed int64) (a, b [][]int64) {
	rng := rand.New(rand.NewSource(seed))
	a, b = make([][]int64, n), make([][]int64, n)
	for i := 0; i < n; i++ {
		a[i], b[i] = make([]int64, n), make([]int64, n)
		for j := 0; j < n; j++ {
			a[i][j] = int64(rng.Intn(19) - 9)
			b[i][j] = int64(rng.Intn(19) - 9)
		}
	}
	return a, b
}

// ---------------------------------------------------------------------
// Simulated work: the paper's programs served as jobs. These run on
// private virtual-time systems inside the worker — they never touch the
// shared cluster, so they need no namespace and cannot be cancelled
// mid-run; the scheduler enforces their deadlines at attempt
// boundaries.

// MatmulStage runs one stage of the paper's matmul progression on the
// simulated testbed and reports its virtual timing.
type MatmulStage struct {
	Stage matmul.Stage
	Cfg   matmul.Config
}

// Kind implements Work.
func (w MatmulStage) Kind() string { return "matmul" }

// Run implements Work.
func (w MatmulStage) Run(rt *Runtime) (any, error) {
	res, err := matmul.Run(w.Stage, w.Cfg)
	if err != nil {
		return nil, err
	}
	return map[string]any{
		"stage":   res.Stage.String(),
		"seconds": res.Seconds,
		"pes":     res.PEs,
	}, nil
}

// PlanRun executes an arbitrary core.Plan via core.Execute on a fresh
// simulated system and reports its makespan.
type PlanRun struct {
	Plan *core.Plan
	// PEs sizes the system; 0 sizes it to the plan's highest node + 1.
	PEs int
}

// Kind implements Work.
func (w PlanRun) Kind() string { return "plan" }

// Run implements Work.
func (w PlanRun) Run(rt *Runtime) (any, error) {
	if w.Plan == nil {
		return nil, fmt.Errorf("sched: plan work without a plan")
	}
	pes := w.PEs
	if pes <= 0 {
		for _, nd := range w.Plan.NodesUsed() {
			if nd+1 > pes {
				pes = nd + 1
			}
		}
		if pes == 0 {
			pes = 1
		}
	}
	sys := navp.NewSim(navp.DefaultConfig(), machine.SunBlade100(), pes)
	if err := core.Execute(w.Plan, sys, nil); err != nil {
		return nil, err
	}
	return map[string]any{
		"threads":  len(w.Plan.Threads),
		"makespan": sys.VirtualTime(),
		"pes":      pes,
	}, nil
}
