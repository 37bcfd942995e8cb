package main

import (
	"math"
	"testing"
)

func TestNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.91, 10}, {1, 10}, {0.001, 1},
	} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..10, %g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(nearestRank(nil, 0.5)) {
		t.Error("nearestRank of no samples is a number")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, err := tailPercentile(seq(100), 0.9); err != nil || v != 90 {
		t.Errorf("p90 of 100 samples = %g, %v; want 90 (10 samples beyond)", v, err)
	}
	if _, err := tailPercentile(seq(99), 0.9); err == nil {
		t.Error("p90 of 99 samples has 9 beyond it and was accepted")
	}
	if _, err := tailPercentile(seq(999), 0.99); err == nil {
		t.Error("p99 of 999 samples has 9 beyond it and was accepted")
	}
	if _, err := tailPercentile(seq(1000), 0.99); err != nil {
		t.Errorf("p99 of 1000 samples: %v", err)
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
		{[]float64{2, 9}, 0.25, 5.5, 10.75}, // Python extrapolates with two samples
	} {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %g, want 2", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}
