package navp

import "repro/internal/metrics"

// Metric names exposed by the NavP layer. The counts are properties of
// the program, not of the engine executing it, so a program reports the
// same values on the sim and real backends (and, run on the sim backend,
// byte-identical registry snapshots on every run).
const (
	// Hop statements executed, including free local hops.
	MetricHops = "navp.hops"
	// Agents created with Inject — staged injections and in-program ones.
	MetricInjects = "navp.injects"
	// Wait and Signal calls (and their string forms).
	MetricWaits   = "navp.waits"
	MetricSignals = "navp.signals"
)

// navpMetrics holds pre-resolved handles so agent hot paths never touch
// the registry's map. The zero System carries handles resolved against a
// nil registry: valid no-op sinks.
type navpMetrics struct {
	hops, injects, waits, signals *metrics.Counter
}

func newNavpMetrics(r *metrics.Registry) *navpMetrics {
	return &navpMetrics{
		hops:    r.Counter(MetricHops),
		injects: r.Counter(MetricInjects),
		waits:   r.Counter(MetricWaits),
		signals: r.Counter(MetricSignals),
	}
}

// SetMetrics points the system's instrumentation at r, and — on the sim
// backend — the kernel's too. Call it before Run; nil discards updates.
func (s *System) SetMetrics(r *metrics.Registry) {
	s.metrics = r
	s.met = newNavpMetrics(r)
	if b, ok := s.backend.(*simBackend); ok {
		b.kernel.SetMetrics(r)
	}
}

// Metrics returns the registry installed with SetMetrics, or nil.
func (s *System) Metrics() *metrics.Registry { return s.metrics }
