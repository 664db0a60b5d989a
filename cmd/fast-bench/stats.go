package main

import (
	"math"
	"slices"
)

// median returns the middle value of xs (mean of the two middle values
// for an even count); NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile exactly as Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because
// that is what the driver computes the run-to-run spread with. ok is
// false below two samples.
func quartiles(xs []float64) (q1, q3 float64, ok bool) {
	n := len(xs)
	if n < 2 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3), true
}

// spread is the inter-quartile distance as a share of the median: the
// steadiness figure the bounds in BENCHMARK.json are set from. Zero
// below two samples.
func spread(xs []float64) float64 {
	q1, q3, ok := quartiles(xs)
	if !ok {
		return 0
	}
	return (q3 - q1) / median(xs)
}

// percentile returns the p-th percentile (nearest rank) of xs. ok is
// false unless at least ten samples lie beyond it — the eligibility
// rule of the choosing-metrics guide: p90 needs 100 samples, p50 needs
// 20.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n) / 100))
	if n-rank < 10 {
		return 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rank-1], true
}
