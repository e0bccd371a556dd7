package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// tail figure resting on fewer is one outlier, not a percentile.
const minBeyond = 10

// tailLadder lists the percentiles a tail may be reported at, highest first.
// It stops at p99: at these run lengths p99.9 rests on ten or so samples and
// would make every tail figure as noisy as the worst stall in a run.
var tailLadder = []float64{0.99, 0.9, 0.5}

// quantile is one reported percentile of a sample.
type quantile struct {
	Q     float64 // the percentile, as a fraction (0.99 is p99)
	Value float64
	N     int // samples the percentile was taken over
}

// rank returns the nearest-rank index of quantile q in a sorted sample of n.
func rank(q float64, n int) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	if k > n-1 {
		k = n - 1
	}
	return k
}

// beyond counts the samples of a sorted sample of n that lie above the
// nearest-rank q-quantile.
func beyond(q float64, n int) int { return n - 1 - rank(q, n) }

// percentile returns the nearest-rank q-quantile of xs (sorting xs).
func percentile(xs []float64, q float64) quantile {
	if len(xs) == 0 {
		return quantile{Q: q}
	}
	sort.Float64s(xs)
	return quantile{Q: q, Value: xs[rank(q, len(xs))], N: len(xs)}
}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it (sorting xs). ok is false when even the
// median lacks that support.
func tail(xs []float64) (quantile, bool) {
	sort.Float64s(xs)
	for _, q := range tailLadder {
		if beyond(q, len(xs)) >= minBeyond {
			return quantile{Q: q, Value: xs[rank(q, len(xs))], N: len(xs)}, true
		}
	}
	return quantile{N: len(xs)}, false
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// windowPercentile returns the median over windows (passes, or one-second
// bins) of each window's q-quantile. One stalled window then moves the
// figure by one rank instead of setting it. ok is false unless every window
// has at least minBeyond samples beyond its q-quantile.
func windowPercentile(windows [][]float64, q float64) (quantile, bool) {
	per := make([]float64, len(windows))
	total, ok := 0, len(windows) > 0
	for i, w := range windows {
		total += len(w)
		ok = ok && beyond(q, len(w)) >= minBeyond
		if len(w) > 0 {
			per[i] = percentile(w, q).Value
		}
	}
	return quantile{Q: q, Value: median(per), N: total}, ok
}

// windowTail is windowPercentile at the highest percentile of tailLadder
// that every window supports.
func windowTail(windows [][]float64) (quantile, bool) {
	for _, q := range tailLadder {
		if t, ok := windowPercentile(windows, q); ok {
			return t, true
		}
	}
	return quantile{}, false
}
