package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// perfettoEvent is one Chrome trace_event entry. The exported subset —
// metadata ("M"), complete spans ("X"), and instants ("i") — is what
// Perfetto and chrome://tracing render without a schema. Timestamps and
// durations are microseconds; Pid groups the run, Tid is the PE track.
type perfettoEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   *float64       `json:"dur,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type perfettoFile struct {
	TraceEvents     []perfettoEvent `json:"traceEvents"`
	DisplayTimeUnit string          `json:"displayTimeUnit"`
}

const perfettoPid = 1

// usec converts a trace timestamp (seconds — virtual on the sim backend,
// wall since start on the real and wire runtimes) to microseconds.
func usec(t float64) float64 { return t * 1e6 }

// WritePerfetto exports the recorded events as Chrome trace_event JSON,
// loadable in ui.perfetto.dev or chrome://tracing. Each PE gets one
// named track; compute and wait events become duration spans, hops
// become spans on the *destination* PE (where the transfer time is
// spent), and the fault-layer events — drops, retries, kills,
// recoveries — become instant markers. Event order within the file
// follows recording order, so the export is deterministic for
// deterministic traces.
//
// Multi-tenant traces (events tagged with a nonzero Job by the wire
// scheduler) are split into one process group per job — Perfetto's
// process rail — so each job's hops and retries read as its own
// pipeline, with the runtime's untagged events in the base "cluster"
// group. Job pids are assigned in ascending job order, keeping the
// export deterministic regardless of interleaving.
func (r *Recorder) WritePerfetto(w io.Writer, pes int) error {
	out := perfettoFile{DisplayTimeUnit: "ms", TraceEvents: []perfettoEvent{}}
	events := r.Events()
	jobs := []uint64{}
	seenJobs := map[uint64]bool{}
	for _, ev := range events {
		if ev.Job != 0 && !seenJobs[ev.Job] {
			seenJobs[ev.Job] = true
			jobs = append(jobs, ev.Job)
		}
	}
	sort.Slice(jobs, func(i, j int) bool { return jobs[i] < jobs[j] })
	pidFor := map[uint64]int{0: perfettoPid}
	for i, job := range jobs {
		pidFor[job] = perfettoPid + 1 + i
	}
	processName := func(pid int) string {
		if pid == perfettoPid {
			return "cluster"
		}
		return fmt.Sprintf("job %d", jobs[pid-perfettoPid-1])
	}
	for pid := perfettoPid; pid <= perfettoPid+len(jobs); pid++ {
		out.TraceEvents = append(out.TraceEvents, perfettoEvent{
			Name: "process_name", Phase: "M", Pid: pid,
			Args: map[string]any{"name": processName(pid)},
		})
		for pe := 0; pe < pes; pe++ {
			out.TraceEvents = append(out.TraceEvents, perfettoEvent{
				Name: "thread_name", Phase: "M", Pid: pid, Tid: pe,
				Args: map[string]any{"name": fmt.Sprintf("PE %d", pe)},
			})
		}
	}
	pid := perfettoPid // reassigned per event from its job tag
	span := func(name, cat string, tid int, start, end float64, args map[string]any) perfettoEvent {
		d := usec(end) - usec(start)
		return perfettoEvent{Name: name, Phase: "X", Cat: cat,
			TS: usec(start), Dur: &d, Pid: pid, Tid: tid, Args: args}
	}
	instant := func(name, cat string, tid int, at float64, args map[string]any) perfettoEvent {
		return perfettoEvent{Name: name, Phase: "i", Cat: cat, Scope: "t",
			TS: usec(at), Pid: pid, Tid: tid, Args: args}
	}
	clampTid := func(pe int) int {
		if pe < 0 {
			return 0
		}
		if pe >= pes {
			return pes - 1
		}
		return pe
	}
	for _, ev := range events {
		pid = pidFor[ev.Job]
		agent := map[string]any{"agent": ev.Agent}
		switch ev.Kind {
		case TraceCompute:
			out.TraceEvents = append(out.TraceEvents,
				span("compute", "compute", clampTid(ev.From), ev.Start, ev.End, agent))
		case TraceWait:
			out.TraceEvents = append(out.TraceEvents,
				span("wait:"+ev.Label, "wait", clampTid(ev.From), ev.Start, ev.End, agent))
		case TraceHop:
			args := map[string]any{"agent": ev.Agent, "from": ev.From, "to": ev.To, "bytes": ev.Bytes}
			if ev.End > ev.Start {
				out.TraceEvents = append(out.TraceEvents,
					span("hop", "hop", clampTid(ev.To), ev.Start, ev.End, args))
			} else {
				out.TraceEvents = append(out.TraceEvents,
					instant("hop", "hop", clampTid(ev.To), ev.Start, args))
			}
		case TraceSignal:
			out.TraceEvents = append(out.TraceEvents,
				instant("signal:"+ev.Label, "event", clampTid(ev.From), ev.Start, agent))
		case TraceInject:
			out.TraceEvents = append(out.TraceEvents,
				instant("inject:"+ev.Label, "event", clampTid(ev.From), ev.Start, agent))
		case TraceDrop:
			args := map[string]any{"agent": ev.Agent, "to": ev.To, "bytes": ev.Bytes}
			out.TraceEvents = append(out.TraceEvents,
				instant("drop", "fault", clampTid(ev.From), ev.Start, args))
		case TraceRetry:
			args := map[string]any{"agent": ev.Agent, "to": ev.To, "attempt": ev.Label}
			out.TraceEvents = append(out.TraceEvents,
				instant("retry", "fault", clampTid(ev.From), ev.Start, args))
		case TraceKill:
			out.TraceEvents = append(out.TraceEvents,
				instant("kill", "fault", clampTid(ev.From), ev.Start, nil))
		case TraceRecover:
			args := map[string]any{"replayed": ev.Label}
			if ev.End > ev.Start {
				out.TraceEvents = append(out.TraceEvents,
					span("recover", "fault", clampTid(ev.From), ev.Start, ev.End, args))
			} else {
				out.TraceEvents = append(out.TraceEvents,
					instant("recover", "fault", clampTid(ev.From), ev.Start, args))
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}
