// Package trace records the observable actions of NavP agents — hops,
// computation spans, event waits — and renders them as ASCII space-time
// diagrams (space across, time down), the measured counterpart of the
// paper's Figure 1 schematics, and as per-PE data-movement summaries used
// by the experiment reports. It also defines the event types the runtimes
// report (TraceEvent, Tracer), and imports nothing else from the repo, so
// the wire serving stack can record events without linking a simulator.
package trace

import (
	"fmt"
	"io"
	"strings"
	"sync"
)

// TraceKind classifies a trace event.
type TraceKind uint8

const (
	TraceHop TraceKind = iota
	TraceCompute
	TraceWait
	TraceSignal
	TraceInject
	// Fault-layer kinds: a hop frame lost in transit, a resend after a
	// timeout, a daemon death, and its recovery (checkpoint replay).
	TraceDrop
	TraceRetry
	TraceKill
	TraceRecover
	// TraceMigrate is an agent shipped between daemons as a synthetic
	// hop by the elasticity layer (migration, drain, reroute) rather
	// than by its own behavior.
	TraceMigrate
)

// String returns the kind's name.
func (k TraceKind) String() string {
	switch k {
	case TraceHop:
		return "hop"
	case TraceCompute:
		return "compute"
	case TraceWait:
		return "wait"
	case TraceSignal:
		return "signal"
	case TraceInject:
		return "inject"
	case TraceDrop:
		return "drop"
	case TraceRetry:
		return "retry"
	case TraceKill:
		return "kill"
	case TraceRecover:
		return "recover"
	case TraceMigrate:
		return "migrate"
	}
	return fmt.Sprintf("TraceKind(%d)", uint8(k))
}

// TraceEvent is one observable action of an agent, reported to the
// runtime's Tracer (if any). Times are seconds: virtual on navp's sim
// backend, wall since start on the goroutine backend and the wire runtime.
type TraceEvent struct {
	Kind  TraceKind
	Agent string
	// Job is the job namespace the event belongs to when the runtime
	// above is multi-tenant (the wire scheduler); 0 otherwise. Viewers
	// group events into one track group per job.
	Job        uint64
	From, To   int // node ids; From == To except for hops
	Label      string
	Bytes      int64
	Start, End float64
}

// Tracer receives trace events from a runtime: navp.System.SetTracer
// and wire.Options.Tracer install one. Implementations must be cheap;
// navp's sim backend calls them from its single running process, its
// goroutine backend from every PE's run loop at once, and the wire
// runtime from every daemon. Recorder implements Tracer and locks
// internally.
type Tracer interface {
	Record(TraceEvent)
}

// Recorder collects trace events. It is safe for concurrent use (the
// real backend records from many goroutines).
type Recorder struct {
	mu     sync.Mutex
	events []TraceEvent
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{} }

// Record implements Tracer.
func (r *Recorder) Record(ev TraceEvent) {
	r.mu.Lock()
	r.events = append(r.events, ev)
	r.mu.Unlock()
}

// Events returns a copy of the recorded events.
func (r *Recorder) Events() []TraceEvent {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TraceEvent(nil), r.events...)
}

// Len returns the number of recorded events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Stats summarizes a run.
type Stats struct {
	// Hops is the number of inter-PE migrations; HopBytes their total
	// payload.
	Hops     int
	HopBytes int64
	// ComputeTime is the summed duration of compute spans across agents;
	// WaitTime the summed duration of event waits.
	ComputeTime, WaitTime float64
	// Agents is the number of distinct agents observed.
	Agents int
	// Finish is the latest event end time.
	Finish float64
	// Fault-injection counts: dropped hop frames, retransmission
	// attempts, daemon kills, and daemon recoveries.
	Drops, Retries, Kills, Recovers int
}

// Stats computes the run summary.
func (r *Recorder) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Stats
	agents := map[string]bool{}
	for _, ev := range r.events {
		agents[ev.Agent] = true
		if ev.End > s.Finish {
			s.Finish = ev.End
		}
		switch ev.Kind {
		case TraceHop:
			s.Hops++
			s.HopBytes += ev.Bytes
		case TraceCompute:
			s.ComputeTime += ev.End - ev.Start
		case TraceWait:
			s.WaitTime += ev.End - ev.Start
		case TraceDrop:
			s.Drops++
		case TraceRetry:
			s.Retries++
		case TraceKill:
			s.Kills++
		case TraceRecover:
			s.Recovers++
		}
	}
	s.Agents = len(agents)
	return s
}

// HopMatrix returns bytes moved between each ordered PE pair;
// m[from][to] is the payload volume of hops from PE from to PE to.
func (r *Recorder) HopMatrix(pes int) [][]int64 {
	m := make([][]int64, pes)
	for i := range m {
		m[i] = make([]int64, pes)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, ev := range r.events {
		if ev.Kind == TraceHop && ev.From < pes && ev.To < pes {
			m[ev.From][ev.To] += ev.Bytes
		}
	}
	return m
}

// symbolFor assigns compact display runes to agents in order of first
// appearance.
var symbolAlphabet = []rune("0123456789ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz")

// SpaceTime renders the run as an ASCII space-time diagram: one column
// per PE (space, west to east), one row per time bucket (time, top to
// bottom), the paper's Figure 1 orientation. Each cell shows the symbol
// of the agent that computed longest on that PE during the bucket, '·'
// for idle. Fault-injection events overlay the compute cells — 'x' a
// dropped hop frame (at the sending PE), 'r' a retransmission, '#' a
// daemon kill, '+' a recovery — with kills taking precedence over
// recoveries over drops over retries. A legend maps symbols back to
// agent names; a second legend line appears when fault marks are shown.
func (r *Recorder) SpaceTime(pes, height int) string {
	if height <= 0 {
		height = 24
	}
	events := r.Events()
	var finish float64
	for _, ev := range events {
		if ev.End > finish {
			finish = ev.End
		}
	}
	if finish == 0 {
		return "(empty trace)\n"
	}
	bucket := finish / float64(height)

	// occupancy[row][pe][agent] = compute time in that cell.
	occupancy := make([]map[int]map[string]float64, height)
	for i := range occupancy {
		occupancy[i] = map[int]map[string]float64{}
	}
	symbols := map[string]rune{}
	order := []string{}
	sym := func(agent string) rune {
		if s, ok := symbols[agent]; ok {
			return s
		}
		s := rune('*')
		if len(order) < len(symbolAlphabet) {
			s = symbolAlphabet[len(order)]
		}
		symbols[agent] = s
		order = append(order, agent)
		return s
	}
	// Fault marks per cell, keeping the highest-precedence mark. Kills
	// and recoveries are recorded at the affected node (From == To);
	// drops and retries at the sending PE.
	faultRank := map[TraceKind]int{
		TraceRetry: 1, TraceDrop: 2, TraceRecover: 3, TraceKill: 4,
	}
	faultRune := map[TraceKind]rune{
		TraceRetry: 'r', TraceDrop: 'x', TraceRecover: '+', TraceKill: '#',
	}
	faults := make([]map[int]TraceKind, height)
	anyFault := false
	for _, ev := range events {
		if faultRank[ev.Kind] == 0 {
			continue
		}
		row := int(ev.Start / bucket)
		if row < 0 {
			row = 0
		}
		if row >= height {
			row = height - 1
		}
		if faults[row] == nil {
			faults[row] = map[int]TraceKind{}
		}
		if faultRank[ev.Kind] > faultRank[faults[row][ev.From]] {
			faults[row][ev.From] = ev.Kind
		}
		anyFault = true
	}

	for _, ev := range events {
		if ev.Kind != TraceCompute {
			continue
		}
		sym(ev.Agent)
		if ev.End <= ev.Start {
			// Zero-width compute span (the real backend stamps Start ==
			// End): credit an epsilon of occupancy at its bucket, clamped
			// at the last row for spans on the finish boundary, so the
			// agent still appears instead of silently vanishing.
			row := int(ev.Start / bucket)
			if row < 0 {
				row = 0
			}
			if row >= height {
				row = height - 1
			}
			if occupancy[row][ev.From] == nil {
				occupancy[row][ev.From] = map[string]float64{}
			}
			occupancy[row][ev.From][ev.Agent] += bucket * 1e-12
			continue
		}
		for row := int(ev.Start / bucket); row < height; row++ {
			lo := float64(row) * bucket
			hi := lo + bucket
			if ev.End <= lo {
				break
			}
			span := min(ev.End, hi) - max(ev.Start, lo)
			if span <= 0 {
				continue
			}
			if occupancy[row][ev.From] == nil {
				occupancy[row][ev.From] = map[string]float64{}
			}
			occupancy[row][ev.From][ev.Agent] += span
		}
	}

	var b strings.Builder
	fmt.Fprintf(&b, "time ↓   PE: ")
	for pe := 0; pe < pes; pe++ {
		fmt.Fprintf(&b, "%-3d", pe)
	}
	b.WriteByte('\n')
	for row := 0; row < height; row++ {
		fmt.Fprintf(&b, "%9.3fs  ", float64(row)*bucket)
		for pe := 0; pe < pes; pe++ {
			best, bestSpan := '·', float64(0)
			// Deterministic tie-breaking by agent appearance order.
			for _, agent := range order {
				if span := occupancy[row][pe][agent]; span > bestSpan {
					best, bestSpan = symbols[agent], span
				}
			}
			if k, ok := faults[row][pe]; ok {
				best = faultRune[k]
			}
			b.WriteRune(best)
			b.WriteString("  ")
		}
		b.WriteByte('\n')
	}
	b.WriteString("legend: ")
	for i, agent := range order {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%c=%s", symbols[agent], agent)
		if i == 11 && len(order) > 12 {
			fmt.Fprintf(&b, ", … (%d agents)", len(order))
			break
		}
	}
	b.WriteByte('\n')
	if anyFault {
		b.WriteString("faults: x=drop, r=retry, #=kill, +=recover\n")
	}
	return b.String()
}

// WriteCSV streams the recorded events as CSV (kind, agent, from, to,
// label, bytes, start, end) for external analysis or plotting. Events
// appear in recording order.
func (r *Recorder) WriteCSV(w io.Writer) error {
	if _, err := io.WriteString(w, "kind,agent,from,to,label,bytes,start,end\n"); err != nil {
		return err
	}
	for _, ev := range r.Events() {
		_, err := fmt.Fprintf(w, "%s,%q,%d,%d,%q,%d,%.9f,%.9f\n",
			ev.Kind, ev.Agent, ev.From, ev.To, ev.Label, ev.Bytes, ev.Start, ev.End)
		if err != nil {
			return err
		}
	}
	return nil
}
