package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{99, 0, false}, // the 90th of 99 leaves 9 beyond it
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{999, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	} {
		p, ok := tailPercentile(c.n)
		if p != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
}

func TestSummarize(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // unsorted on purpose
	}
	got := summarize(xs)
	if got.N != 1000 || got.P50 != 500 || got.TailP != 99 || got.Tail != 990 {
		t.Errorf("summarize = %+v; want median 500, p99 = 990 over 1000 samples", got)
	}
	if few := summarize(xs[:20]); few.TailP != 0 || few.Tail != 0 || few.P50 != 990 {
		t.Errorf("summarize of 20 samples = %+v; want a median (990) and no tail", few)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 1: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", p, got, want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

// The expected values are Python's: statistics.quantiles(xs, n=4).
func TestQuartileSpread(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 12, 11, 13, 50, 12, 11, 12, 13, 12}, (13.0 - 11.0) / 12},
		{[]float64{3, 1, 2, 4}, (3.75 - 1.25) / 2.5},
		{[]float64{7}, 0},
	} {
		if got := quartileSpread(c.xs); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quartileSpread(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}
