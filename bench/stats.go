package main

import (
	"math"
	"sort"
)

// percentile is the nearest-rank p-th percentile (0 < p ≤ 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := nearestRank(p, len(sorted))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// nearestRank is ⌈p/100 · n⌉, proof against p/100·n landing a hair above a
// whole number (99.9 % of 10,000 is rank 9,990, not 9,991).
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailLadder are the percentiles a timing may be reported at.
var tailLadder = []float64{99.99, 99.9, 99, 95, 90}

// tailPercentile is the highest percentile of the ladder that n samples
// support: one with at least ten samples beyond it. ok is false when even
// the 90th has fewer, and then only the median is reported.
func tailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		// beyond = samples strictly above the nearest-rank cut
		if n-nearestRank(p, n) >= 10 {
			return p, true
		}
	}
	return 0, false
}

// timing is how a set of latencies is reported: the median, the highest
// percentile the sample supports, and the sample count.
type timing struct {
	P50   float64
	TailP float64 // 0 when the sample supports none
	Tail  float64
	N     int
}

func summarize(xs []float64) timing {
	s := sortedCopy(xs)
	t := timing{P50: percentile(s, 50), N: len(s)}
	if p, ok := tailPercentile(len(s)); ok {
		t.TailP, t.Tail = p, percentile(s, p)
	}
	return t
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median, with the quartiles of Python's
// statistics.quantiles(xs, n=4) (the exclusive method), which is how the
// benchmark's contract measures run-to-run spread.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	q := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4
		j := int(pos)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(med)
}
