package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6} // 1..10 shuffled
	for _, tc := range []struct {
		p    float64
		want float64
	}{{0.50, 5}, {0.90, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(vals, tc.p); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if vals[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
}

// A tail percentile is reported only with ten samples beyond it.
func TestTailRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, // exactly ten beyond
		{99, 0.90, false}, // nine beyond
		{20, 0.50, true},
		{19, 0.50, false},
		{1000, 0.99, true},
		{999, 0.99, false},
		{0, 0.50, false},
	} {
		if got := tailRule(tc.n, tc.p); got != tc.want {
			t.Errorf("tailRule(%d, %v) = %v, want %v (%d beyond)", tc.n, tc.p, got, tc.want, samplesBeyond(tc.n, tc.p))
		}
	}
	for _, tc := range []struct {
		n    int
		want float64
	}{{10, 0}, {20, 0.50}, {40, 0.75}, {100, 0.90}, {163, 0.90}, {200, 0.95}, {1000, 0.99}} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	ms := func(a, b int) interval {
		return interval{time.Duration(a) * time.Millisecond, time.Duration(b) * time.Millisecond}
	}
	outer := ms(10, 110)
	for _, tc := range []struct {
		name     string
		children []interval
		union    int
	}{
		{"none", nil, 0},
		{"disjoint", []interval{ms(20, 30), ms(50, 70)}, 30},
		{"overlapping", []interval{ms(20, 50), ms(40, 60)}, 40},
		{"nested", []interval{ms(20, 80), ms(30, 40)}, 60},
		{"touching", []interval{ms(20, 30), ms(30, 40)}, 20},
		{"unsorted", []interval{ms(90, 100), ms(20, 30)}, 20},
		{"clipped at both ends", []interval{ms(0, 20), ms(100, 200)}, 20},
		{"outside entirely", []interval{ms(0, 5), ms(120, 130)}, 0},
		{"covering", []interval{ms(0, 200)}, 100},
	} {
		want := time.Duration(tc.union) * time.Millisecond
		if got := unionWithin(outer, tc.children); got != want {
			t.Errorf("%s: union = %v, want %v", tc.name, got, want)
		}
		if got := selfTime(outer, tc.children); got != 100*time.Millisecond-want {
			t.Errorf("%s: self time = %v, want %v", tc.name, got, 100*time.Millisecond-want)
		}
	}
}

func TestPoissonScheduleFromSeedAlone(t *testing.T) {
	a := poissonSchedule(7, 16, 5*time.Second)
	b := poissonSchedule(7, 16, 5*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := poissonSchedule(8, 16, 5*time.Second); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	// 80 arrivals expected; five standard deviations either way.
	if len(a) < 35 || len(a) > 125 {
		t.Fatalf("%d arrivals at 16/s over 5 s", len(a))
	}
	for i, d := range a {
		if d <= 0 || d >= 5*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v breaks the schedule's order or its window", i, d)
		}
	}
}

func TestKillSchedule(t *testing.T) {
	period, dur := 2*time.Second, 16*time.Second
	a := killSchedule(3, period, dur)
	if !reflect.DeepEqual(a, killSchedule(3, period, dur)) {
		t.Fatal("the same seed gave two kill schedules")
	}
	if reflect.DeepEqual(a, killSchedule(4, period, dur)) {
		t.Fatal("two seeds gave the same kill schedule")
	}
	if len(a) != 7 {
		t.Fatalf("%d kills over 16 s at one per 2 s, want 7", len(a))
	}
	for i, k := range a {
		centre := time.Duration(i+1) * period
		if k < centre-period/4 || k > centre+period/4 {
			t.Errorf("kill %d at %v, more than a quarter period from %v", i, k, centre)
		}
		if k > dur-period/2 {
			t.Errorf("kill %d at %v leaves no room to recover before %v", i, k, dur)
		}
	}
	if got := killSchedule(3, period, 3*time.Second); len(got) != 0 {
		t.Errorf("a 3 s phase got %d kills; none fits", len(got))
	}
}

func TestLateness(t *testing.T) {
	ms := time.Millisecond
	due := []time.Duration{10 * ms, 20 * ms, 30 * ms, 40 * ms}
	submitted := []time.Duration{10 * ms, 26 * ms, 29 * ms, 42 * ms} // on time, 6 late, early, 2 late
	mean, worst := lateness(due, submitted)
	if mean != 2*ms || worst != 6*ms {
		t.Fatalf("lateness = mean %v worst %v, want 2ms and 6ms", mean, worst)
	}
	if mean, worst := lateness(nil, nil); mean != 0 || worst != 0 {
		t.Fatalf("lateness of nothing = %v, %v", mean, worst)
	}
}

func TestSplitByKills(t *testing.T) {
	ms := time.Millisecond
	job := func(submit, done int) jobSample {
		return jobSample{submit: time.Duration(submit) * ms, done: time.Duration(done) * ms, latencyMS: float64(done - submit)}
	}
	jobs := []jobSample{
		job(0, 90),    // before the first kill
		job(95, 300),  // the kill at 100 falls inside
		job(100, 150), // submitted at the kill instant
		job(310, 400), // between kills
		job(420, 500), // ends at the kill instant
		job(510, 600), // after the last kill
		job(50, 700),  // spans both kills, counted once
	}
	hit, unhit := splitByKills(jobs, []time.Duration{100 * ms, 500 * ms})
	if want := []float64{205, 50, 80, 650}; !reflect.DeepEqual(hit, want) {
		t.Errorf("hit = %v, want %v", hit, want)
	}
	if want := []float64{90, 90, 90}; !reflect.DeepEqual(unhit, want) {
		t.Errorf("unhit = %v, want %v", unhit, want)
	}
	hit, unhit = splitByKills(jobs, nil)
	if len(hit) != 0 || len(unhit) != len(jobs) {
		t.Errorf("without kills: %d hit, %d unhit", len(hit), len(unhit))
	}
}
