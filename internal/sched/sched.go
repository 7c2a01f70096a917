// Package sched is the multi-tenant serving layer on top of the NavP
// runtimes: a job scheduler that accepts NavP programs — wire-cluster
// matmul pipelines, simulated matmul stages from internal/matmul,
// arbitrary core.Plans — and runs many of them concurrently over one
// shared wire.Cluster and a pool of workers (DESIGN.md §12).
//
// The scheduler provides what the single-program runtimes deliberately
// do not: a bounded admission queue with priorities and backpressure,
// per-job deadlines and cancellation that propagate through agent hops
// (via the wire runtime's job namespaces), placement of jobs across PEs,
// a job lifecycle whose results are retrievable exactly once, and
// retry-with-budget on top of the wire checkpoint/recovery subsystem.
// An HTTP API (Server) exposes submit/status/result/cancel beside the
// cluster's /metrics, and LoadGen drives the whole stack closed-loop
// for the BENCH_sched.json regression numbers.
package sched

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/metrics"
)

// Backend is the cluster surface the scheduler runs jobs on. The wire
// runtime has one implementation, the wire.RemoteCluster client —
// reached directly when the daemons are separate OS processes, or
// through wire.Cluster, which embeds it over in-process hosts — so a
// scheduler, and every Work program, runs on the same control frames
// either way. Every method that crosses a connection returns an error.
type Backend interface {
	// Size returns the cluster's node count.
	Size() int
	// SetVar places a node variable (durable before the call returns on
	// persistent hosts).
	SetVar(node int, name string, v any) error
	// GetVar reads a node variable (nil when absent).
	GetVar(node int, name string) (any, error)
	// InjectJob starts an agent on node under a nonzero job namespace.
	InjectJob(node int, job uint64, behavior string, state any) error
	// WaitJob blocks until the namespace is quiescent.
	WaitJob(job uint64, timeout time.Duration) error
	// CancelJob marks the namespace cancelled; its agents retire at
	// their next dispatch.
	CancelJob(job uint64)
	// ReleaseJob forgets a drained namespace's bookkeeping.
	ReleaseJob(job uint64)
	// ClearVarsPrefix deletes prefixed node variables on every node.
	ClearVarsPrefix(prefix string)
	// Metrics exposes the backend's metric registry.
	Metrics() *metrics.Registry
}

// Liveness is the optional Backend extension a remote cluster provides:
// a heartbeat-fed verdict per node. Placement steers fresh jobs away
// from dead hosts; correctness never depends on the verdict being
// current (a job placed on a host that dies anyway is retried).
type Liveness interface {
	Alive(node int) bool
}

// Migrator is the optional Backend extension for live agent migration:
// up to count of node's resident agents (job-scoped when job is
// nonzero) ship to dst as synthetic hops at their next dispatch
// boundary. Both wire backends implement it; the rebalancer requires
// it.
type Migrator interface {
	MigrateAgents(node, dst int, job uint64, count int) (int, error)
}

// Freezer is the optional Backend extension for checkpoint-to-disk
// preemption: a frozen namespace's agents park at their next dispatch
// boundary, and the backend's WaitJob fails fast with the job-frozen
// sentinel instead of timing out. Suspend/Resume require it.
type Freezer interface {
	FreezeJob(job uint64) error
	ThawJob(job uint64) error
}

// Elastic is the optional Backend extension for cluster membership
// changes: LiveNodes is the placeable set (drained members excluded),
// and DrainNode evacuates a member's agents and counter history into
// the survivors. The scheduler's DrainNode and the autoscaler require
// it.
type Elastic interface {
	LiveNodes() []int
	DrainNode(node int, timeout time.Duration) error
}

// Grower is the optional Backend extension for adopting members that
// joined after the backend dialed in (wire.RemoteCluster.Refresh).
type Grower interface {
	Refresh() error
}

// State is a job's position in the lifecycle
//
//	queued → placed → running → done | failed | evicted
//	                     ↓  ↑
//	                  suspended
//
// with two shortcuts: an admission reject never becomes a job at all,
// and a cancel or deadline hit while still queued evicts directly. A
// running job on a Freezer backend can be suspended — its agents
// checkpoint and park, the worker is released — and later resumed back
// through the queue.
type State int

const (
	StateQueued    State = iota // admitted, waiting for a worker
	StatePlaced                 // claimed by a worker, base PE chosen
	StateRunning                // an attempt is executing
	StateSuspended              // preempted; agents frozen on the cluster
	StateDone                   // finished; result awaiting retrieval
	StateFailed                 // retry budget exhausted
	StateEvicted                // cancelled, or deadline exceeded
)

// String returns the state's wire name (used in the HTTP API and in
// metric names).
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StatePlaced:
		return "placed"
	case StateRunning:
		return "running"
	case StateSuspended:
		return "suspended"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateEvicted:
		return "evicted"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateEvicted
}

// States lists every lifecycle state, in order.
var States = []State{StateQueued, StatePlaced, StateRunning, StateSuspended, StateDone, StateFailed, StateEvicted}

// Priority orders jobs in the admission queue. Higher runs first; equal
// priorities run in submission order.
type Priority int

const (
	PriorityLow    Priority = 0
	PriorityNormal Priority = 1
	PriorityHigh   Priority = 2
)

// Spec describes one job at submission.
type Spec struct {
	// Work is the program to run. Required.
	Work Work
	// Priority orders the admission queue (default PriorityLow).
	Priority Priority
	// Deadline bounds the job's total time in the system, queueing
	// included; past it the job is evicted (a running wire attempt is
	// cancelled through its hops). Zero means no deadline.
	Deadline time.Duration
	// Retries is how many times a failed attempt is retried before the
	// job is marked failed — the retry budget spent on daemon kills and
	// termination timeouts. Each retry runs in a fresh wire job
	// namespace, so a half-finished prior attempt cannot collide with
	// its successor.
	Retries int
}

// Status is the externally visible snapshot of a job.
type Status struct {
	ID       uint64        `json:"id"`
	State    string        `json:"state"`
	Priority Priority      `json:"priority"`
	Kind     string        `json:"kind"`
	Base     int           `json:"base_pe"`
	Attempts int           `json:"attempts"`
	Error    string        `json:"error,omitempty"`
	Age      time.Duration `json:"age_ns"`
}

// Errors of the serving surface. ErrQueueFull is the backpressure
// signal: the admission queue is at capacity and the submitter should
// slow down or retry later (HTTP 429).
var (
	ErrQueueFull      = errors.New("sched: admission queue full")
	ErrClosed         = errors.New("sched: scheduler closed")
	ErrUnknownJob     = errors.New("sched: unknown job")
	ErrNotDone        = errors.New("sched: job not finished")
	ErrResultConsumed = errors.New("sched: result already retrieved")
	ErrNoResult       = errors.New("sched: job produced no result")
	// ErrNotSuspendable: Suspend needs a running job and a Freezer
	// backend; ErrNotSuspended: Resume needs a suspended job.
	ErrNotSuspendable = errors.New("sched: job not running or backend cannot freeze")
	ErrNotSuspended   = errors.New("sched: job not suspended")
)
