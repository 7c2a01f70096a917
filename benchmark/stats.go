package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// percentile is the nearest-rank pth quantile (0 < p <= 1) of values;
// 0 for none. It sorts a copy.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(values []float64) float64 { return percentile(values, 0.50) }

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// samplesBeyond is how many of n samples lie above the nearest-rank
// pth quantile.
func samplesBeyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - int(math.Ceil(p*float64(n)))
}

// tailRule is the reporting rule for a tail percentile: it holds only
// with at least ten samples beyond it, so p90 needs 100 samples.
func tailRule(n int, p float64) bool { return samplesBeyond(n, p) >= 10 }

// highestTail returns the highest percentile of the usual ladder that
// n samples support under tailRule, or 0 when not even the median does.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range []float64{0.50, 0.75, 0.90, 0.95, 0.99} {
		if tailRule(n, p) {
			best = p
		}
	}
	return best
}

// interval is a half-open time span on the run's clock.
type interval struct{ start, end time.Duration }

// unionWithin is the total length of the union of ivs clipped to outer.
func unionWithin(outer interval, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.start < outer.start {
			iv.start = outer.start
		}
		if iv.end > outer.end {
			iv.end = outer.end
		}
		if iv.end > iv.start {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			if iv.end > cur.end {
				cur.end = iv.end
			}
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(outer interval, children []interval) time.Duration {
	return (outer.end - outer.start) - unionWithin(outer, children)
}

// poissonSchedule returns the due times of a Poisson arrival process of
// the given rate over dur, from the seed alone.
func poissonSchedule(seed int64, rate float64, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var due []time.Duration
	var t time.Duration
	for {
		t += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if t >= dur {
			return due
		}
		due = append(due, t)
	}
}

// killSchedule returns the kill instants over dur: one per period,
// each moved by up to a quarter period either way from the seed, none
// in the first half period or the last period (the last victim must
// recover inside the phase).
func killSchedule(seed int64, period, dur time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var kills []time.Duration
	for t := period; t <= dur-period; t += period {
		jitter := time.Duration((rng.Float64() - 0.5) * 0.5 * float64(period))
		kills = append(kills, t+jitter)
	}
	return kills
}

// lateness accounts for an open-loop generator: the mean and the worst
// of submit minus due, a negative difference counting as zero.
func lateness(due, submitted []time.Duration) (mean, worst time.Duration) {
	if len(due) == 0 {
		return 0, 0
	}
	var sum time.Duration
	for i := range due {
		late := submitted[i] - due[i]
		if late < 0 {
			late = 0
		}
		sum += late
		if late > worst {
			worst = late
		}
	}
	return sum / time.Duration(len(due)), worst
}

// jobSample is one completed job as the load generator saw it.
type jobSample struct {
	submit    time.Duration // on the run's clock
	done      time.Duration
	latencyMS float64
	attempts  int
}

// splitByKills separates the latencies of jobs whose lifetime contains
// a kill instant from the rest.
func splitByKills(jobs []jobSample, kills []time.Duration) (hit, unhit []float64) {
	for _, j := range jobs {
		struck := false
		for _, k := range kills {
			if j.submit <= k && k <= j.done {
				struck = true
				break
			}
		}
		if struck {
			hit = append(hit, j.latencyMS)
		} else {
			unhit = append(unhit, j.latencyMS)
		}
	}
	return hit, unhit
}

func latencies(jobs []jobSample) []float64 {
	out := make([]float64, len(jobs))
	for i, j := range jobs {
		out[i] = j.latencyMS
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
