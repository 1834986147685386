package core

import (
	"math/rand"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

func benchLog(n, distinct int) *Log {
	r := rand.New(rand.NewSource(1))
	l := NewLog(n)
	for i := 0; i < distinct; i++ {
		v := bitvec.New(n)
		base := (i % 8) * (n / 8)
		for j := 0; j < n/8; j++ {
			if r.Intn(3) == 0 {
				v.Set(base + j)
			}
		}
		l.Add(v, 1+r.Intn(1000))
	}
	return l
}

func BenchmarkNaiveEncode(b *testing.B) {
	l := benchLog(863, 605)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NaiveEncode(l)
	}
}

// BenchmarkFeatureMarginals tracks the bit-column accumulator rewrite:
// AccumulateInto's direct word scan replaces the per-vector ForEach closure
// indirection, and the whole computation allocates exactly once (the output
// slice) — the allocs/op figure pins that floor against regressions.
func BenchmarkFeatureMarginals(b *testing.B) {
	l := benchLog(863, 605)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.FeatureMarginals()
	}
}

// BenchmarkCompressBinaryVsDense compares Compress's popcount kernels
// against the dense oracle (compressDense) on the same log, seed and
// options, for fixed-K k-means, the auto sweep and fixed-K hierarchical
// clustering — the before/after of the binary-kernel refactor at the core
// layer.
func BenchmarkCompressBinaryVsDense(b *testing.B) {
	l := benchLog(863, 605)
	for _, c := range []struct {
		name string
		opts CompressOptions
	}{
		{"kmeans", CompressOptions{K: 8, Seed: 1}},
		{"sweep", CompressOptions{Seed: 1, TargetError: 0.05, MaxK: 12}},
		{"hierarchical", CompressOptions{K: 8, Method: HierarchicalMethod, Seed: 1}},
	} {
		for _, k := range []struct {
			name     string
			compress func(*Log, CompressOptions) (*Compressed, error)
		}{{"binary", Compress}, {"dense", compressDense}} {
			b.Run(c.name+"/"+k.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := k.compress(l, c.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func BenchmarkCompressKMeans(b *testing.B) {
	l := benchLog(400, 300)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(l, CompressOptions{K: 8, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchRange range-merges three segments of 64 clusters each: 192
// components over a universe of 600.
func benchRange(b *testing.B) *Compressed {
	segs := make([]*Compressed, 3)
	for i := range segs {
		c, err := Compress(segLog(600, 900, int64(i+1)), CompressOptions{K: 64, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		segs[i] = c
	}
	m, err := MergeRange(segs, 0)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

func BenchmarkConsolidate(b *testing.B) {
	m := benchRange(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Consolidate(m, CompressOptions{K: 8})
	}
}

func BenchmarkCoalesceMixture(b *testing.B) {
	m := benchRange(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CoalesceMixture(m.Mixture, 8)
	}
}

func BenchmarkEstimateCount(b *testing.B) {
	l := benchLog(863, 605)
	mix, _ := BuildNaiveMixture(l, kmeansAssign(l, 8))
	pat := bitvec.FromIndices(863, 10, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mix.EstimateCount(pat)
	}
}

func BenchmarkTrueCount(b *testing.B) {
	// the uncompressed alternative EstimateCount replaces: a full log scan
	l := benchLog(863, 605)
	pat := bitvec.FromIndices(863, 10, 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = l.Count(pat)
	}
}

func BenchmarkCandidatePatterns(b *testing.B) {
	l := benchLog(200, 300)
	e := NaiveEncode(l)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = CandidatePatterns(l, e, 0.05, 50)
	}
}

func kmeansAssign(l *Log, k int) cluster.Assignment {
	labels := make([]int, l.Distinct())
	for i := range labels {
		labels[i] = i % k
	}
	return cluster.Assignment{Labels: labels, K: k}
}
