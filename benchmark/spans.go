package main

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// span is one timed call: its name, when it ran on the run's clock, and
// the job that caused it (the scheduler's job id, namespace >> 8).
// The job's own span, recorded by the load generator, is named "job".
type span struct {
	name       string
	job        uint64
	start, end time.Duration
}

// spanRecorder keeps spans in memory while it is on.
type spanRecorder struct {
	epoch time.Time
	on    atomic.Bool

	mu    sync.Mutex
	spans []span
	hops  map[uint64]int // inter-daemon hops per job, from the injected rings
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), hops: map[uint64]int{}}
}

func (r *spanRecorder) now() time.Duration { return time.Since(r.epoch) }

func (r *spanRecorder) add(name string, job uint64, start, end time.Duration) {
	r.mu.Lock()
	r.spans = append(r.spans, span{name: name, job: job, start: start, end: end})
	r.mu.Unlock()
}

// take returns the spans recorded so far and forgets them.
func (r *spanRecorder) take() (spans []span, hops map[uint64]int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans, hops = r.spans, r.hops
	r.spans, r.hops = nil, map[uint64]int{}
	return spans, hops
}

// tracedCluster is the sched.Backend the traced phases run on: the
// remote cluster with a span around every call the scheduler and the
// Work make. Embedding forwards everything else, the optional
// Liveness, Elastic, Freezer, Migrator and Grower interfaces included.
type tracedCluster struct {
	*wire.RemoteCluster
	rec *spanRecorder
}

func (t *tracedCluster) call(name string, job uint64, fn func()) {
	if !t.rec.on.Load() {
		fn()
		return
	}
	start := t.rec.now()
	fn()
	t.rec.add(name, job, start, t.rec.now())
}

// jobOfPrefix recovers the job id from a node-variable name: the
// scheduler prefixes an attempt's variables with "j<namespace>:".
func jobOfPrefix(name string) uint64 {
	if !strings.HasPrefix(name, "j") {
		return 0
	}
	digits, _, ok := strings.Cut(name[1:], ":")
	if !ok {
		return 0
	}
	ns, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0
	}
	return ns >> 8
}

func (t *tracedCluster) SetVar(node int, name string, v any) (err error) {
	t.call("SetVar", jobOfPrefix(name), func() { err = t.RemoteCluster.SetVar(node, name, v) })
	return err
}

func (t *tracedCluster) GetVar(node int, name string) (v any, err error) {
	t.call("GetVar", jobOfPrefix(name), func() { v, err = t.RemoteCluster.GetVar(node, name) })
	return v, err
}

func (t *tracedCluster) InjectJob(node int, job uint64, behavior string, state any) (err error) {
	if t.rec.on.Load() {
		if n := ringHops(state); n > 0 {
			t.rec.mu.Lock()
			t.rec.hops[job>>8] += n
			t.rec.mu.Unlock()
		}
	}
	t.call("InjectJob", job>>8, func() { err = t.RemoteCluster.InjectJob(node, job, behavior, state) })
	return err
}

func (t *tracedCluster) WaitJob(job uint64, timeout time.Duration) (err error) {
	t.call("WaitJob", job>>8, func() { err = t.RemoteCluster.WaitJob(job, timeout) })
	return err
}

func (t *tracedCluster) CancelJob(job uint64) {
	t.call("CancelJob", job>>8, func() { t.RemoteCluster.CancelJob(job) })
}

func (t *tracedCluster) ReleaseJob(job uint64) {
	t.call("ReleaseJob", job>>8, func() { t.RemoteCluster.ReleaseJob(job) })
}

func (t *tracedCluster) ClearVarsPrefix(prefix string) {
	t.call("ClearVarsPrefix", jobOfPrefix(prefix), func() { t.RemoteCluster.ClearVarsPrefix(prefix) })
}

// ringHops counts the inter-daemon hops an injected agent will make,
// from its state's exported Ring field (the visit order the wirematmul
// row carrier is handed): one hop per change of node along the ring.
// States without a Ring count none.
func ringHops(state any) int {
	v := reflect.ValueOf(state)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return 0
	}
	ring := v.FieldByName("Ring")
	if !ring.IsValid() || ring.Kind() != reflect.Slice {
		return 0
	}
	hops := 0
	for i := 1; i < ring.Len(); i++ {
		if ring.Index(i).Int() != ring.Index(i-1).Int() {
			hops++
		}
	}
	return hops
}

// The groups the per-job time is split into. Their shares and the self
// share sum to 1 on a phase where a job's calls do not overlap.
var spanGroups = map[string]string{
	"InjectJob":       "inject",
	"WaitJob":         "waitjob",
	"GetVar":          "getvar",
	"SetVar":          "setvar",
	"ReleaseJob":      "cleanup",
	"ClearVarsPrefix": "cleanup",
	"CancelJob":       "cleanup",
}

// breakdown is what a set of spans says about the jobs in it.
type breakdown struct {
	jobs         int
	share        map[string]float64   // group -> share of total job time; "self" included
	durationsMS  map[string][]float64 // call name -> every call's duration
	callsPerJob  map[string]float64   // call name -> mean calls per job
	ctlPerJob    float64
	hopsPerJob   float64
	dispatchMS   []float64 // job start -> its first child span
	unevenCounts bool      // jobs disagreed on their call count
}

// analyse folds spans into a breakdown. Only jobs that have a "job"
// span count; children of other jobs (warm-ups, probes) are ignored.
func analyse(spans []span, hops map[uint64]int) breakdown {
	jobSpan := map[uint64]interval{}
	for _, s := range spans {
		if s.name == "job" {
			jobSpan[s.job] = interval{s.start, s.end}
		}
	}
	bd := breakdown{
		jobs:        len(jobSpan),
		share:       map[string]float64{},
		durationsMS: map[string][]float64{},
		callsPerJob: map[string]float64{},
	}
	if bd.jobs == 0 {
		return bd
	}
	children := map[uint64][]span{}
	for _, s := range spans {
		if _, ok := jobSpan[s.job]; ok && s.name != "job" {
			children[s.job] = append(children[s.job], s)
		}
	}
	var total time.Duration
	groupTime := map[string]time.Duration{}
	calls := map[string]int{}
	ctl, firstCount := 0, -1
	for id, outer := range jobSpan {
		total += outer.end - outer.start
		kids := children[id]
		byGroup := map[string][]interval{}
		var all []interval
		first := outer.end
		for _, s := range kids {
			iv := interval{s.start, s.end}
			all = append(all, iv)
			byGroup[spanGroups[s.name]] = append(byGroup[spanGroups[s.name]], iv)
			bd.durationsMS[s.name] = append(bd.durationsMS[s.name], ms(s.end-s.start))
			calls[s.name]++
			if s.start < first {
				first = s.start
			}
		}
		for g, ivs := range byGroup {
			groupTime[g] += unionWithin(outer, ivs)
		}
		groupTime["self"] += selfTime(outer, all)
		if len(kids) > 0 {
			bd.dispatchMS = append(bd.dispatchMS, ms(first-outer.start))
		}
		ctl += len(kids)
		if firstCount < 0 {
			firstCount = len(kids)
		} else if len(kids) != firstCount {
			bd.unevenCounts = true
		}
		bd.hopsPerJob += float64(hops[id])
	}
	for g, d := range groupTime {
		bd.share[g] = float64(d) / float64(total)
	}
	for name, n := range calls {
		bd.callsPerJob[name] = float64(n) / float64(bd.jobs)
	}
	bd.ctlPerJob = float64(ctl) / float64(bd.jobs)
	bd.hopsPerJob /= float64(bd.jobs)
	return bd
}

// writeSpansPerfetto writes spans as Chrome trace_event JSON, the
// format trace.Recorder.WritePerfetto emits: one process per job, the
// job's own span on track 0 and its Backend calls on track 1.
func writeSpansPerfetto(w io.Writer, spans []span) error {
	type event struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    float64        `json:"ts"`
		Dur   *float64       `json:"dur,omitempty"`
		Pid   uint64         `json:"pid"`
		Tid   int            `json:"tid"`
		Cat   string         `json:"cat,omitempty"`
		Args  map[string]any `json:"args,omitempty"`
	}
	out := struct {
		TraceEvents     []event `json:"traceEvents"`
		DisplayTimeUnit string  `json:"displayTimeUnit"`
	}{TraceEvents: []event{}, DisplayTimeUnit: "ms"}

	sorted := append([]span(nil), spans...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	named := map[uint64]bool{}
	usec := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range sorted {
		if !named[s.job] {
			named[s.job] = true
			label := fmt.Sprintf("job %d", s.job)
			if s.job == 0 {
				label = "outside any job"
			}
			out.TraceEvents = append(out.TraceEvents,
				event{Name: "process_name", Phase: "M", Pid: s.job, Args: map[string]any{"name": label}},
				event{Name: "thread_name", Phase: "M", Pid: s.job, Tid: 0, Args: map[string]any{"name": "job"}},
				event{Name: "thread_name", Phase: "M", Pid: s.job, Tid: 1, Args: map[string]any{"name": "backend calls"}})
		}
		dur := usec(s.end - s.start)
		tid, cat := 1, spanGroups[s.name]
		if s.name == "job" {
			tid, cat = 0, "job"
		}
		out.TraceEvents = append(out.TraceEvents,
			event{Name: s.name, Phase: "X", TS: usec(s.start), Dur: &dur, Pid: s.job, Tid: tid, Cat: cat})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(&out)
}
