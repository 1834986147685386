// Package stats is a leaf of small statistics helpers: Histogram, the
// fixed-footprint latency histogram behind obs's histogram series and the
// gateway's per-shard call timings, and BernoulliEntropy, the per-feature
// entropy that core's naive encodings and maxent's fitted distributions
// sum and that the figures' feature selection ranks by.
package stats

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"time"
)

// Histogram is a small fixed-footprint latency histogram in the HDR style:
// values are bucketed by exponent plus histMantissaBits of mantissa, so
// every bucket's width is at most 1/2^histMantissaBits (≈3.1%) of its
// value — quantiles are accurate to that relative error across the whole
// int64 range with no per-recording allocation and ~16 KiB of counters.
//
// The zero value is ready to use. A Histogram is not safe for concurrent
// use; concurrent recorders should each own one and Merge them afterwards
// (merging is exact: buckets align by construction).
type Histogram struct {
	counts [histBuckets]uint64
	n      uint64
	min    int64
	max    int64
	sum    int64
}

const (
	histMantissaBits = 5
	histSubBuckets   = 1 << histMantissaBits
	// one bucket row per exponent 0..63, histSubBuckets columns each
	histBuckets = 64 * histSubBuckets
)

// bucketOf maps a non-negative value to its bucket index.
func bucketOf(v int64) int {
	if v < histSubBuckets {
		// exponent row 0 holds the exact small values
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v)) // ≥ histMantissaBits
	mant := int(v>>uint(exp-histMantissaBits)) - histSubBuckets
	return (exp-histMantissaBits+1)*histSubBuckets + mant
}

// bucketHigh returns the largest value a bucket holds — the conservative
// (upper-bound) representative quantiles report.
func bucketHigh(b int) int64 {
	row, mant := b/histSubBuckets, b%histSubBuckets
	if row == 0 {
		return int64(mant)
	}
	exp := row + histMantissaBits - 1
	base := (int64(histSubBuckets) + int64(mant)) << uint(exp-histMantissaBits)
	width := int64(1) << uint(exp-histMantissaBits)
	return base + width - 1
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bucketOf(v)]++
}

// RecordDuration adds one latency observation in nanoseconds.
func (h *Histogram) RecordDuration(d time.Duration) { h.Record(int64(d)) }

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.n }

// Min and Max return the exact extremes (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the exact arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an upper bound for the q-quantile (q in [0,1]): the
// high edge of the bucket holding the ⌈q·n⌉-th smallest observation,
// within ≈3.1% of the true value (and clamped to the exact Max). Empty
// histograms report 0.
func (h *Histogram) Quantile(q float64) int64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.n))
	if rank > 0 {
		rank-- // 1-based rank → 0-based index
	}
	var seen uint64
	for b, c := range h.counts {
		seen += c
		if c > 0 && seen > rank {
			v := bucketHigh(b)
			if v > h.max {
				v = h.max
			}
			if v < h.min {
				v = h.min
			}
			return v
		}
	}
	return h.max
}

// QuantileDuration is Quantile for nanosecond recordings.
func (h *Histogram) QuantileDuration(q float64) time.Duration {
	return time.Duration(h.Quantile(q))
}

// Sum returns the exact sum of recorded observations (0 when empty).
func (h *Histogram) Sum() int64 { return h.sum }

// ForEachBucket calls fn for every non-empty bucket in ascending value
// order with the bucket's inclusive upper edge and its count. Exposition
// formats (internal/obs) fold these into their own coarser ladders; because
// a bucket spans at most ≈3.1% of its value, attributing its whole count to
// the ladder step holding its upper edge keeps cumulative counts within
// that relative error.
func (h *Histogram) ForEachBucket(fn func(upper int64, count uint64)) {
	if h.n == 0 {
		return
	}
	for b, c := range h.counts {
		if c > 0 {
			fn(bucketHigh(b), c)
		}
	}
}

// Merge folds other into h. Buckets align by construction, so merging
// per-worker histograms is exact.
func (h *Histogram) Merge(other *Histogram) {
	if other == nil || other.n == 0 {
		return
	}
	if h.n == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.n += other.n
	h.sum += other.sum
	for i, c := range other.counts {
		h.counts[i] += c
	}
}

// Reset returns the histogram to its empty state.
func (h *Histogram) Reset() { *h = Histogram{} }

// Summary renders count/mean and the common latency quantiles, treating
// recordings as nanoseconds — the one-line form the bench harnesses log.
func (h *Histogram) Summary() string {
	if h.n == 0 {
		return "n=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d mean=%v", h.n, time.Duration(int64(h.Mean())))
	for _, q := range []float64{0.50, 0.99, 0.999} {
		fmt.Fprintf(&b, " p%s=%v", trimQ(q), h.QuantileDuration(q))
	}
	fmt.Fprintf(&b, " max=%v", time.Duration(h.Max()))
	return b.String()
}

func trimQ(q float64) string {
	s := fmt.Sprintf("%g", q*100)
	return strings.ReplaceAll(s, ".", "_")
}

// QuantilesOf is a convenience for exact reference quantiles in tests and
// reports: the ⌈q·n⌉-th smallest of a sample.
func QuantilesOf(sample []int64, q float64) int64 {
	if len(sample) == 0 {
		return 0
	}
	s := append([]int64(nil), sample...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := int(q * float64(len(s)))
	if rank > 0 {
		rank--
	}
	if rank >= len(s) {
		rank = len(s) - 1
	}
	return s[rank]
}
