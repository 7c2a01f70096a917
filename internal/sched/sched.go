// Package sched is the multi-tenant serving layer on top of the wire
// NavP runtime: a job scheduler that accepts NavP programs — the
// wire-cluster matmul pipeline (WireMatmul) over HTTP, any Work from Go —
// and runs many of them concurrently over one shared cluster and a pool
// of workers (DESIGN.md §12). Like internal/wire below it, it links no
// simulator package; a CI step checks that with go list -deps.
//
// The scheduler provides what the single-program runtimes deliberately
// do not: a bounded admission queue with priorities and backpressure,
// per-job deadlines and cancellation that propagate through agent hops
// (via the wire runtime's job namespaces), placement of jobs across PEs,
// a job lifecycle whose results are retrievable exactly once, and
// retry-with-budget on top of the wire checkpoint/recovery subsystem.
// An HTTP API (Server) exposes submit/status/result/cancel beside the
// cluster's /metrics; navpbench (./benchmark) is the serving benchmark.
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

	// Alive is the heartbeat-fed verdict on a node. Placement steers
	// fresh jobs away from dead hosts; correctness never depends on the
	// verdict being current (a job placed on a host that dies anyway is
	// retried).
	Alive(node int) bool
	// LiveNodes is the placeable node set: drained members excluded.
	LiveNodes() []int
	// DrainNode evacuates a member's agents and counter history into
	// the survivors, then removes it from the membership.
	DrainNode(node int, timeout time.Duration) error
	// FreezeJob parks a namespace's agents at their next dispatch
	// boundary; WaitJob then fails fast with wire.ErrJobFrozen instead
	// of timing out. ThawJob re-dispatches them from their checkpoints.
	FreezeJob(job uint64) error
	ThawJob(job uint64) error
	// Refresh adopts members that joined after the backend dialed in.
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
// running job on a cluster can be suspended — its agents
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
	// its successor. A job makes at most 255 attempts in its lifetime,
	// retries and resumes together; past that it fails.
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
	// ErrNotSuspendable: Suspend needs a running job;
	// ErrNotSuspended: Resume needs a suspended job.
	ErrNotSuspendable = errors.New("sched: job not running")
	ErrNotSuspended   = errors.New("sched: job not suspended")
)
