package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is the guide's rule for a reportable percentile: at least this
// many samples must lie beyond it, or the number is one outlier's latency.
const tailBeyond = 10

// nearestRank is the 1-based rank of the p-th percentile (0 < p <= 100) of n
// samples: the smallest rank with at least p% of the sample at or below it.
// The epsilon keeps a product such as 99.9% of 12000, which floating point
// may put a hair above 11988, from rounding up a rank.
func nearestRank(n int, p float64) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of an ascending-sorted
// sample, 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[min(max(nearestRank(len(sorted), p), 1), len(sorted))-1]
}

// supported reports whether the p-th percentile of n samples has at least
// tailBeyond samples strictly beyond its rank.
func supported(n int, p float64) bool {
	return n-nearestRank(n, p) >= tailBeyond
}

// tailLadder is the fixed set of tail percentiles the benchmark may report.
var tailLadder = []float64{75, 90, 99, 99.9}

// tail returns the highest percentile of tailLadder the sample supports and
// its value; with too few samples even for the lowest it falls back to the
// median (pct 50), which needs no samples beyond it to be meaningful.
func tail(sorted []float64) (pct, value float64) {
	pct = 50
	for _, p := range tailLadder {
		if supported(len(sorted), p) {
			pct = p
		}
	}
	return pct, percentile(sorted, pct)
}

// sortedMS converts durations to ascending milliseconds.
func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// median returns the nearest-rank median of an unsorted sample.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// quartiles returns Q1, the median and Q3 of xs by the method Python's
// statistics.quantiles(xs, n=4) uses (exclusive, linear interpolation at
// positions i*(n+1)/4), so the spreads printed here are the ones the driver
// computes. xs needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		n := len(s)
		pos := float64(i) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	return at(1), at(2), at(3)
}
