package navp

import "repro/internal/metrics"

// Metric names exposed by the NavP layer. The counts are properties of
// the program, not of the engine executing it, so a program reports the
// same values on the sim and real backends (and, run on the sim backend,
// byte-identical registry snapshots on every run).
//
// Each node counts the actions its agents take there in plain integers,
// which only the node's loop writes, as it owns the node's variables and
// events; Run adds the counts to the registry once, when the backend
// returns. So no PE writes a shared counter while the program runs, and
// a registry read during Run shows no NavP counts.
const (
	// Hop statements executed, including free local hops.
	MetricHops = "navp.hops"
	// Agents created with Inject — staged injections and in-program ones.
	MetricInjects = "navp.injects"
	// Wait and Signal calls (and their string forms).
	MetricWaits   = "navp.waits"
	MetricSignals = "navp.signals"
)

// cacheLine is the size of the cache line programCounts keeps to itself.
const cacheLine = 64

// programCounts are one node's counts of the actions its agents took on
// it. Nodes are small allocations that sit next to each other, so the
// counts are padded on both sides: whatever line they share is written
// only by their own node's loop.
type programCounts struct {
	_                             [cacheLine]byte
	hops, injects, waits, signals int64
	_                             [cacheLine]byte
}

// foldCounts adds every node's counts, and the staged injections, to the
// installed registry. Run calls it after the backend has returned, when
// no loop writes a count any more.
func (s *System) foldCounts(staged int64) {
	if s.metrics == nil {
		return
	}
	sum := programCounts{injects: staged}
	for _, nd := range s.nodes {
		c := &nd.counts
		sum.hops += c.hops
		sum.injects += c.injects
		sum.waits += c.waits
		sum.signals += c.signals
	}
	s.metrics.Counter(MetricHops).Add(sum.hops)
	s.metrics.Counter(MetricInjects).Add(sum.injects)
	s.metrics.Counter(MetricWaits).Add(sum.waits)
	s.metrics.Counter(MetricSignals).Add(sum.signals)
}

// SetMetrics points the system's instrumentation at r, and — on the sim
// backend — the kernel's too. Call it before Run; nil discards updates.
func (s *System) SetMetrics(r *metrics.Registry) {
	s.metrics = r
	if b, ok := s.backend.(*simBackend); ok {
		b.kernel.SetMetrics(r)
	}
}

// Metrics returns the registry installed with SetMetrics, or nil.
func (s *System) Metrics() *metrics.Registry { return s.metrics }
