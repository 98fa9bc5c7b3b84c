package main

import (
	"math"
	"sort"
	"time"
)

// tailCandidates are the percentiles tail reports, highest first.
var tailCandidates = []float64{99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples: n − ceil(p/100 · n).
func beyond(p float64, n int) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// nearestRank returns the nearest-rank p-th percentile of sorted samples.
func nearestRank(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// tail reports the highest candidate percentile that has at least ten
// samples beyond it, and its value. With too few samples for even the
// median to qualify it reports the maximum as percentile 100.
func tail(samples []float64) (pct, value float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sorted := sortedCopy(samples)
	for _, p := range tailCandidates {
		if beyond(p, len(sorted)) >= minBeyond {
			return p, nearestRank(sorted, p)
		}
	}
	return 100, sorted[len(sorted)-1]
}

// median returns the middle sample (mean of the two middle ones for an
// even count); 0 for no samples.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	sorted := sortedCopy(samples)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
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

// ratio returns a/b, or 0 when b is 0 (a layer the workload never
// exercised).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
