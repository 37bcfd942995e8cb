package main

import (
	"fmt"
	"math"
	"sort"
)

// nearestRank returns the q-quantile (0 < q <= 1) of sorted by the
// nearest-rank method: the smallest sample with at least q of the
// samples at or below it.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1]
}

// minTail is how many samples must lie beyond a percentile for it to
// describe a tail rather than a few outliers.
const minTail = 10

// tailPercentile is nearestRank for a tail percentile, refusing when
// fewer than minTail samples lie beyond it.
func tailPercentile(sorted []float64, q float64) (float64, error) {
	beyond := len(sorted) - int(math.Ceil(q*float64(len(sorted))))
	if beyond < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, needs %d", q*100, len(sorted), beyond, minTail)
	}
	return nearestRank(sorted, q), nil
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return s[n/2]
	default:
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quartiles returns the three cut points of xs exactly as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the steadiness report reads like the acceptance check.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	if ld < 2 {
		v := median(xs)
		return v, v, v
	}
	m := ld + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
