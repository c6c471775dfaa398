package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// sorted: the smallest sample with at least p% of the samples at or
// below it. An empty sample set yields 0.
func percentile(sorted []int64, p float64) int64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	return sorted[rank(n, p)-1]
}

// rank is the 1-based nearest rank of the p-th percentile among n ≥ 1
// samples: ⌈p·n/100⌉, clamped to [1, n]. The epsilon keeps a product
// that is a whole number on paper (99.9% of 10 000) from rounding up.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder are the tail percentiles a report may quote, ascending.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// tailPercentile picks the highest percentile of tailLadder that still
// has at least ten samples beyond it (choosing-metrics §1): a P99.9 of
// 2 000 samples rests on two of them and says nothing. ok is false when
// even the lowest rung has fewer than ten.
func tailPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if beyond(n, q) >= 10 {
			p, ok = q, true
		}
	}
	return p, ok
}

// beyond is the number of samples ranked above the p-th percentile.
func beyond(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, p)
}

// median of a small float sample (set-up repetitions); 0 when empty.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
