package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
	"time"
)

func TestJobOfPrefix(t *testing.T) {
	for name, want := range map[string]uint64{
		"j1281:B":      5, // namespace 5<<8 | 1
		"j1282:C:3":    5, // the same job's second attempt
		"j257:":        1,
		"navpbench:x":  0,
		"j:":           0,
		"jx1:":         0,
		"j12":          0,
		"":             0,
		"j99999999999": 0,
	} {
		if got := jobOfPrefix(name); got != want {
			t.Errorf("jobOfPrefix(%q) = %d, want %d", name, got, want)
		}
	}
}

func TestRingHops(t *testing.T) {
	type carrier struct {
		Row  int
		Ring []int
	}
	for _, tc := range []struct {
		state any
		want  int
	}{
		{&carrier{Ring: []int{0, 1, 2, 3}}, 3},
		{&carrier{Ring: []int{2, 3, 0, 1}}, 3},
		{&carrier{Ring: []int{0}}, 0},
		{&carrier{}, 0},
		{carrier{Ring: []int{0, 0, 1}}, 1},
		{&hopperState{Left: 9}, 0},
		{42, 0},
		{nil, 0},
	} {
		if got := ringHops(tc.state); got != tc.want {
			t.Errorf("ringHops(%+v) = %d, want %d", tc.state, got, tc.want)
		}
	}
}

// Two jobs, back to back, with serial calls: the group shares and the
// self share must account for all of the jobs' time.
func TestAnalyseSharesSumToOne(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	var spans []span
	add := func(name string, job uint64, start, end int) {
		spans = append(spans, span{name: name, job: job, start: ms(start), end: ms(end)})
	}
	for j, base := range []int{0, 100} {
		id := uint64(j + 1)
		add("job", id, base, base+50)
		add("SetVar", id, base+2, base+4)       // 2
		add("InjectJob", id, base+4, base+14)   // 10
		add("InjectJob", id, base+14, base+24)  // 10
		add("WaitJob", id, base+24, base+34)    // 10
		add("GetVar", id, base+34, base+39)     // 5
		add("ReleaseJob", id, base+40, base+43) // 3
		add("ClearVarsPrefix", id, base+43, base+45)
	}
	add("InjectJob", 77, 60, 90) // a probe outside any job span: ignored
	bd := analyse(spans, map[uint64]int{1: 48, 2: 48, 77: 5})

	if bd.jobs != 2 {
		t.Fatalf("%d jobs, want 2", bd.jobs)
	}
	want := map[string]float64{"setvar": 0.04, "inject": 0.40, "waitjob": 0.20, "getvar": 0.10, "cleanup": 0.10, "self": 0.16}
	sum := 0.0
	for g, w := range want {
		if math.Abs(bd.share[g]-w) > 1e-9 {
			t.Errorf("share[%s] = %v, want %v", g, bd.share[g], w)
		}
		sum += bd.share[g]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v", sum)
	}
	if bd.ctlPerJob != 7 || bd.callsPerJob["InjectJob"] != 2 || bd.hopsPerJob != 48 || bd.unevenCounts {
		t.Errorf("ctl %v, injects %v, hops %v, uneven %v", bd.ctlPerJob, bd.callsPerJob["InjectJob"], bd.hopsPerJob, bd.unevenCounts)
	}
	if len(bd.dispatchMS) != 2 || bd.dispatchMS[0] != 2 || bd.dispatchMS[1] != 2 {
		t.Errorf("dispatch = %v, want two of 2 ms", bd.dispatchMS)
	}
	if n := len(bd.durationsMS["InjectJob"]); n != 4 {
		t.Errorf("%d InjectJob durations, want 4", n)
	}

	// A job with one call fewer makes the counts uneven.
	add("job", 3, 200, 210)
	add("WaitJob", 3, 201, 209)
	if !analyse(spans, nil).unevenCounts {
		t.Error("a job with a different call count went unnoticed")
	}
	if got := analyse(nil, nil); got.jobs != 0 {
		t.Errorf("no spans gave %d jobs", got.jobs)
	}
}

func TestSpanRecorderTakeForgets(t *testing.T) {
	r := newSpanRecorder()
	r.add("job", 1, 0, time.Millisecond)
	r.hops[1] = 3
	spans, hops := r.take()
	if len(spans) != 1 || hops[1] != 3 {
		t.Fatalf("take returned %v, %v", spans, hops)
	}
	if spans, hops = r.take(); len(spans) != 0 || len(hops) != 0 {
		t.Fatalf("second take returned %v, %v", spans, hops)
	}
}

func TestPerfettoOutputParses(t *testing.T) {
	spans := []span{
		{name: "WaitJob", job: 2, start: 30 * time.Microsecond, end: 90 * time.Microsecond},
		{name: "job", job: 2, start: 10 * time.Microsecond, end: 100 * time.Microsecond},
		{name: "SetVar", job: 0, start: 5 * time.Microsecond, end: 6 * time.Microsecond},
	}
	var buf bytes.Buffer
	if err := writeSpansPerfetto(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			Pid  uint64   `json:"pid"`
			Tid  int      `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("output is not JSON: %v", err)
	}
	complete := map[string]bool{}
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		complete[ev.Name] = true
		switch ev.Name {
		case "job":
			if ev.Pid != 2 || ev.Tid != 0 || ev.TS != 10 || ev.Dur == nil || *ev.Dur != 90 {
				t.Errorf("job span written as %+v", ev)
			}
		case "WaitJob":
			if ev.Pid != 2 || ev.Tid != 1 || ev.TS != 30 || *ev.Dur != 60 {
				t.Errorf("WaitJob span written as %+v", ev)
			}
		}
	}
	if !complete["job"] || !complete["WaitJob"] || !complete["SetVar"] || file.DisplayTimeUnit != "ms" {
		t.Errorf("spans missing from %s", buf.String())
	}
}
