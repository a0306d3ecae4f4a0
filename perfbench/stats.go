package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle two for an
// even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of xs, or NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	k := int(math.Ceil(p / 100 * float64(n)))
	return min(max(k, 1), n)
}

// tailCandidates are the percentiles a tail is reported at, highest
// first. The list stops at p99 so that a run with more rounds (a faster
// program) reports the same percentile as one with fewer.
var tailCandidates = []float64{99, 90, 50}

// tailPercentile picks the highest candidate percentile with at least
// ten samples beyond it, so a reported tail is never one or two
// outliers. Below 20 samples not even the median qualifies; ok is then
// false and the median is returned as the best available figure.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailCandidates {
		if n-rank(n, p) >= 10 {
			return p, true
		}
	}
	return 50, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
