package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs, linearly
// interpolated between the closest ranks. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// supportedPercentile returns the highest of the percentiles 50, 90, 99
// and 99.9 that has at least ten of n samples beyond it, or 0 when even
// the median has fewer. A percentile reported above it rests on too few
// samples to compare between runs.
func supportedPercentile(n int) float64 {
	best := 0.0
	for _, permille := range []int{500, 900, 990, 999} {
		atOrBelow := (n*permille + 999) / 1000 // ceil(n * p)
		if n-atOrBelow >= 10 {
			best = float64(permille) / 10
		}
	}
	return best
}

// span is one timed call, as offsets from the tracer's base time.
type span struct{ start, end time.Duration }

func (s span) dur() time.Duration { return s.end - s.start }

// covered returns the length of the union of spans clipped to [lo, hi]:
// overlapping spans count once.
func covered(spans []span, lo, hi time.Duration) time.Duration {
	clipped := make([]span, 0, len(spans))
	for _, s := range spans {
		if s.start < lo {
			s.start = lo
		}
		if s.end > hi {
			s.end = hi
		}
		if s.end > s.start {
			clipped = append(clipped, s)
		}
	}
	sort.Slice(clipped, func(i, k int) bool { return clipped[i].start < clipped[k].start })
	var total time.Duration
	var cur span
	for i, s := range clipped {
		switch {
		case i == 0:
			cur = s
		case s.start <= cur.end:
			if s.end > cur.end {
				cur.end = s.end
			}
		default:
			total += cur.dur()
			cur = s
		}
	}
	if len(clipped) > 0 {
		total += cur.dur()
	}
	return total
}

// selfTime is a span's duration minus the part of it that its children
// cover. Children may nest, overlap each other or stick out of the parent.
func selfTime(parent span, children []span) time.Duration {
	return parent.dur() - covered(children, parent.start, parent.end)
}

// refitTimes derives each estimation round's refit time from the outside:
// the engine commits a round's last draw, then feeds the round to the tail
// estimator, refits it, calls the checkpoint hook and finally emits the
// round event. A round's refit time is therefore the interval from its
// last commit to its round event, minus the checkpoint time inside that
// interval. commits are commit end times, rounds the round-event times,
// both ascending. A round with no commit of its own starts at the
// previous round's event.
func refitTimes(commits, rounds []time.Duration, checkpoints []span) []time.Duration {
	out := make([]time.Duration, 0, len(rounds))
	var prev time.Duration
	c := 0
	for _, r := range rounds {
		start := prev
		for c < len(commits) && commits[c] <= r {
			if commits[c] > start {
				start = commits[c]
			}
			c++
		}
		out = append(out, r-start-covered(checkpoints, start, r))
		prev = r
	}
	return out
}

// tally counts operations and the ones that failed a check. Every
// operation the benchmark drives is recorded exactly once.
type tally struct {
	attempted, failed int
	errs              []string // the first few failures, for the log
}

// record counts one operation; a non-nil err marks it failed.
func (t *tally) record(what string, err error) {
	t.attempted++
	if err == nil {
		return
	}
	t.failed++
	if len(t.errs) < 8 {
		t.errs = append(t.errs, fmt.Sprintf("%s: %v", what, err))
	}
}

// frac is the failed share of attempted operations.
func (t *tally) frac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func millis(d time.Duration) float64  { return float64(d) / float64(time.Millisecond) }
func micros(d time.Duration) float64  { return float64(d) / float64(time.Microsecond) }

// durs converts durations with one of the unit helpers above.
func durs(ds []time.Duration, unit func(time.Duration) float64) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = unit(d)
	}
	return out
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// splitmix64 derives well-spread values from a seed and an index, so each
// workload's campaign seeds follow from the run's seed alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// campaignSeed is the i-th campaign seed of a run: positive and below
// 2^31, so it reads well in logs and journal headers.
func campaignSeed(runSeed int64, i int) int64 {
	return int64(splitmix64(uint64(runSeed)*0x100000001b3+uint64(i))>>33) + 1
}
