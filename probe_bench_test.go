package logr

import (
	"strings"
	"sync"
	"testing"

	"logr/internal/workload"
)

// The read path's benchmarks run on a bank log at the benchmark harness's
// compress_batch scale (300k queries, about 1,700 distinct statements):
//
//	go test -run '^$' -bench 'BenchmarkProbeResolve|BenchmarkWorkloadCount' -benchmem .
//
// "hit" asks the same 2,000 probes over and over, as an index advisor or a
// monitor does; "miss" cycles through more distinct texts (the probes with
// trailing blanks) than the extraction memo holds, so every call parses.

var probeBench struct {
	sync.Once
	w      *Workload
	sum    *Summary
	probes []string
	misses []string
}

func probeBenchState() (*Workload, *Summary, []string, []string) {
	probeBench.Do(func() {
		raw := workload.USBank(workload.USBankConfig{TotalQueries: 300000, DistinctTarget: 1712, Seed: 1})
		w := FromEntries(entriesOf(raw))
		sum, err := w.Compress(CompressOptions{Clusters: 8, Seed: 1})
		if err != nil {
			panic(err)
		}
		res := w.snapshot()
		seen := map[string]bool{}
		for _, e := range raw {
			// pattern probes from each statement: the statement whole,
			// and its projection and tables alone
			for _, q := range []string{e.SQL, strings.SplitN(e.SQL, " WHERE ", 2)[0]} {
				if seen[q] || len(probeBench.probes) == 2000 {
					continue
				}
				seen[q] = true
				if p, err := patternProbe(res.Book, res.Log.Universe(), q); err == nil && len(p.unknown)+len(p.stale) == 0 {
					probeBench.probes = append(probeBench.probes, q)
				}
			}
		}
		for k := 1; len(probeBench.misses) <= 2*probeMemoLimit; k++ {
			for _, q := range probeBench.probes {
				probeBench.misses = append(probeBench.misses, q+strings.Repeat(" ", k))
			}
		}
		probeBench.w, probeBench.sum = w, sum
	})
	return probeBench.w, probeBench.sum, probeBench.probes, probeBench.misses
}

var probeSink float64

// benchProbes runs fn over texts in order, after one warm pass.
func benchProbes(b *testing.B, texts []string, fn func(string) float64) {
	for _, q := range texts[:min(len(texts), probeMemoLimit)] {
		fn(q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		probeSink += fn(texts[i%len(texts)])
	}
}

func BenchmarkProbeResolve(b *testing.B) {
	w, sum, probes, misses := probeBenchState()
	res := w.snapshot()
	resolve := func(q string) float64 {
		p, err := patternProbe(res.Book, res.Log.Universe(), q)
		if err != nil {
			b.Fatal(err)
		}
		return float64(len(p.idx))
	}
	estimate := func(q string) float64 {
		f, err := sum.EstimateFrequency(q)
		if err != nil {
			b.Fatal(err)
		}
		return f
	}
	b.Run("hit", func(b *testing.B) { benchProbes(b, probes, resolve) })
	b.Run("miss", func(b *testing.B) { benchProbes(b, misses, resolve) })
	b.Run("estimate_hit", func(b *testing.B) { benchProbes(b, probes, estimate) })
	b.Run("estimate_miss", func(b *testing.B) { benchProbes(b, misses, estimate) })
}

func BenchmarkWorkloadCount(b *testing.B) {
	w, _, probes, misses := probeBenchState()
	count := func(q string) float64 {
		n, err := w.Count(q)
		if err != nil {
			b.Fatal(err)
		}
		return float64(n)
	}
	b.Run("hit", func(b *testing.B) { benchProbes(b, probes, count) })
	b.Run("miss", func(b *testing.B) { benchProbes(b, misses, count) })
}
