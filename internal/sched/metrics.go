package sched

import (
	"fmt"
	"sync"

	"repro/internal/metrics"
)

// Metric names exposed by the scheduler (DESIGN.md §12). They live in
// the same registry as the wire runtime's wire.* metrics, so one
// /metrics scrape covers the whole serving stack.
const (
	// Jobs waiting in the admission queue right now.
	MetricQueueDepth = "sched.queue.depth"
	// Submissions rejected because the queue was at capacity — the
	// backpressure counter.
	MetricAdmitRejected = "sched.admit.rejected"
	// Jobs currently in each lifecycle state; terminal-state gauges
	// only grow. One gauge per state: sched.jobs.queued, .placed,
	// .running, .done, .failed, .evicted.
	MetricJobsPrefix = "sched.jobs."
	// Attempt retries spent across all jobs (the retry budget in use).
	MetricRetries = "sched.retries"
	// End-to-end latency, submission to terminal state, microseconds.
	MetricE2ELatencyUS = "sched.job.e2e_latency_us"
	// Per-node load: jobs whose base PE is node i, sched.node.load.<i>.
	// The placement's load bound reads these.
	MetricNodeLoadPrefix = "sched.node.load."
	// Jobs preempted to checkpoint (Suspend) and brought back (Resume).
	MetricSuspends = "sched.suspends"
	MetricResumes  = "sched.resumes"
	// Namespaces whose post-attempt drain timed out and were later
	// reclaimed by the background reaper, and how many are still pending
	// — before the reaper existed these leaked forever.
	MetricDrainReaped  = "sched.drain.reaped"
	MetricDrainPending = "sched.drain.pending"
)

// MetricJobState returns the gauge name for one lifecycle state.
func MetricJobState(s State) string { return MetricJobsPrefix + s.String() }

// MetricNodeLoad returns the load gauge name for node i.
func MetricNodeLoad(i int) string { return fmt.Sprintf("%s%d", MetricNodeLoadPrefix, i) }

// e2eLatencyBounds ladders from 1ms to ~17min: queue-through latencies
// of quick sim jobs land early, chaotic wire jobs spread up the tail.
var e2eLatencyBounds = metrics.ExponentialBounds(1000, 2, 20)

// schedMetrics holds the scheduler's pre-resolved handles, one atomic
// op per event on the hot paths. The node-load table alone is guarded
// by a mutex: an elastic cluster can grow mid-run (Refresh), and the
// placement reads the table while Refresh appends to it.
type schedMetrics struct {
	queueDepth    *metrics.Gauge
	admitRejected *metrics.Counter
	retries       *metrics.Counter
	suspends      *metrics.Counter
	resumes       *metrics.Counter
	drainReaped   *metrics.Counter
	drainPending  *metrics.Gauge
	e2eLatency    *metrics.Histogram
	states        map[State]*metrics.Gauge

	reg      *metrics.Registry
	mu       sync.Mutex
	nodeLoad []*metrics.Gauge
}

func newSchedMetrics(r *metrics.Registry, nodes int) *schedMetrics {
	m := &schedMetrics{
		queueDepth:    r.Gauge(MetricQueueDepth),
		admitRejected: r.Counter(MetricAdmitRejected),
		retries:       r.Counter(MetricRetries),
		suspends:      r.Counter(MetricSuspends),
		resumes:       r.Counter(MetricResumes),
		drainReaped:   r.Counter(MetricDrainReaped),
		drainPending:  r.Gauge(MetricDrainPending),
		e2eLatency:    r.Histogram(MetricE2ELatencyUS, e2eLatencyBounds),
		states:        map[State]*metrics.Gauge{},
		reg:           r,
	}
	for _, s := range States {
		m.states[s] = r.Gauge(MetricJobState(s))
	}
	m.ensureNodes(nodes)
	return m
}

// ensureNodes grows the load table to cover n nodes (never shrinks — a
// drained node keeps its gauge, which simply stays at zero).
func (m *schedMetrics) ensureNodes(n int) {
	m.mu.Lock()
	for i := len(m.nodeLoad); i < n; i++ {
		m.nodeLoad = append(m.nodeLoad, m.reg.Gauge(MetricNodeLoad(i)))
	}
	m.mu.Unlock()
}

// addLoad moves node i's load gauge by d.
func (m *schedMetrics) addLoad(i int, d int64) {
	m.mu.Lock()
	g := m.nodeLoad[i]
	m.mu.Unlock()
	g.Add(d)
}

// loads snapshots the per-node load gauges.
func (m *schedMetrics) loads() []int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int64, len(m.nodeLoad))
	for i, g := range m.nodeLoad {
		out[i] = g.Value()
	}
	return out
}

// transition moves the state gauges: one job leaves from, one enters to.
func (m *schedMetrics) transition(from, to State) {
	m.states[from].Add(-1)
	m.states[to].Add(1)
}
