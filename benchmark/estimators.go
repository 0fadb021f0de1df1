package main

import (
	"math"
	"slices"

	"flit/internal/bench/stats"
)

// quietN is how many of a run's fastest segments or trials a timing is read
// from. Interference on this kind of box only ever adds time, so the fast end
// of a run is the part its other tenants touched least; three values, not one,
// so that a single odd clock reading cannot set a metric.
const quietN = 3

// quietest is the mean of the quietN smallest of xs (of all of them, if there
// are fewer).
func quietest(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return mean(s[:min(quietN, len(s))])
}

func mean(xs []float64) float64 { return stats.Summarize(xs).Mean }

func median(xs []float64) float64 { return quartiles(xs)[1] }

// cv is the coefficient of variation (standard deviation over mean).
func cv(xs []float64) float64 {
	s := stats.Summarize(xs)
	return s.Stddev / s.Mean
}

// quartiles returns q1, median, q3 as Python's statistics.quantiles(xs, n=4)
// does (the exclusive method), which is what the driver uses. One value is
// its own quartiles.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q
}

// tailPct is the latency percentile reported, and minBeyond the number of
// samples a reported percentile must have beyond it (choosing-metrics guide,
// section 1). p95, not p99: about one round trip in a hundred on this box
// pays a wake-up across vCPUs of 5-19 us, so the p99 of a depth-1 round trip
// sits on the edge of a cliff and reads 4.3 us or 7.5 us as the share of such
// wake-ups in the run's quietest segment is just under or just over 1 %. p95
// is the highest round percentile clear of it, and it fits a segment of 250
// samples, which is short enough to find the box quiet.
const (
	tailPct   = 0.95
	minBeyond = 10
)

// tailRank returns the 0-based rank, in n sorted samples, of the highest
// percentile not above tailPct that still has minBeyond samples beyond it, and
// that percentile. With n >= 200 it is tailPct itself; fewer samples lower it
// rather than report a tail the sample cannot support.
func tailRank(n int) (rank int, pct float64) {
	rank = int(math.Ceil(tailPct*float64(n))) - 1
	rank = max(0, min(rank, n-1-minBeyond))
	return rank, 100 * float64(rank+1) / float64(n)
}

// tailAndMedian sorts the samples in place and returns the guarded tail
// percentile (see tailRank) and the median.
func tailAndMedian(samples []int64) (tail, p50 float64) {
	slices.Sort(samples)
	rank, _ := tailRank(len(samples))
	return float64(samples[rank]), float64(samples[len(samples)/2])
}
