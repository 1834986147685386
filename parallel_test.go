package logr_test

// Tests for the data-parallel pipeline: the determinism contract (identical
// output at any parallelism level for a fixed seed) and concurrent-use
// safety of Workload (run with -race).

import (
	"fmt"
	"sync"
	"testing"

	"logr"
	"logr/internal/workload"
)

func pocketEntries(total, distinct int, seed int64) []logr.Entry {
	raw := workload.PocketData(workload.PocketDataConfig{TotalQueries: total, DistinctTarget: distinct, Seed: seed})
	entries := make([]logr.Entry, len(raw))
	for i, e := range raw {
		entries[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
	}
	return entries
}

// TestEncodeDeterministicAcrossParallelism pins the sharded encoder's merge
// contract: the codebook, log and statistics must be identical whether
// entries were parsed serially or on many workers.
func TestEncodeDeterministicAcrossParallelism(t *testing.T) {
	entries := pocketEntries(4000, 300, 3)
	base := logr.FromEntriesWithOptions(entries, logr.Options{Parallelism: 1})
	for _, p := range []int{2, 4, 8} {
		w := logr.FromEntriesWithOptions(entries, logr.Options{Parallelism: p})
		if base.Stats() != w.Stats() {
			t.Fatalf("p=%d: stats diverge:\n serial %+v\n parallel %+v", p, base.Stats(), w.Stats())
		}
		if base.Queries() != w.Queries() {
			t.Fatalf("p=%d: query counts diverge: %d vs %d", p, base.Queries(), w.Queries())
		}
		// identical codebook assignment ⇒ identical compression output
		s1, err := base.Compress(logr.CompressOptions{Clusters: 4, Seed: 9, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		s2, err := w.Compress(logr.CompressOptions{Clusters: 4, Seed: 9, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if s1.Error() != s2.Error() || s1.TotalVerbosity() != s2.TotalVerbosity() {
			t.Fatalf("p=%d: summaries diverge: err %v vs %v, verbosity %d vs %d",
				p, s1.Error(), s2.Error(), s1.TotalVerbosity(), s2.TotalVerbosity())
		}
	}
}

// TestCompressDeterministicAcrossParallelism asserts the acceptance
// criterion: for a fixed Seed, Summary.Error(), the cluster count and the
// summary size are bit-identical at parallelism 1 vs N for every method and
// for the auto sweep.
func TestCompressDeterministicAcrossParallelism(t *testing.T) {
	w := logr.FromEntries(pocketEntries(5000, 200, 3))
	cases := []logr.CompressOptions{
		{Clusters: 6, Method: "kmeans", Seed: 7},
		{Clusters: 6, Method: "hierarchical", Seed: 7},
		{Clusters: 0, Method: "kmeans", Seed: 7, TargetError: 0.5, MaxClusters: 8},
		{Clusters: 0, Method: "hierarchical", Seed: 7, TargetError: 0.5, MaxClusters: 8},
	}
	for _, tc := range cases {
		tc := tc
		name := fmt.Sprintf("%s-k%d", tc.Method, tc.Clusters)
		t.Run(name, func(t *testing.T) {
			serial := tc
			serial.Parallelism = 1
			base, err := w.Compress(serial)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{2, 4, 8} {
				par := tc
				par.Parallelism = p
				got, err := w.Compress(par)
				if err != nil {
					t.Fatal(err)
				}
				if got.Error() != base.Error() {
					t.Fatalf("p=%d: Error %v != serial %v", p, got.Error(), base.Error())
				}
				if got.Clusters() != base.Clusters() {
					t.Fatalf("p=%d: Clusters %d != serial %d", p, got.Clusters(), base.Clusters())
				}
				if got.TotalVerbosity() != base.TotalVerbosity() {
					t.Fatalf("p=%d: TotalVerbosity %d != serial %d", p, got.TotalVerbosity(), base.TotalVerbosity())
				}
			}
		})
	}
}

// TestConcurrentAppendCompress exercises the Workload's concurrency
// contract under the race detector: goroutines appending batches while
// others compress and query snapshots.
func TestConcurrentAppendCompress(t *testing.T) {
	entries := pocketEntries(4000, 300, 5)
	quarter := len(entries) / 4
	w := logr.FromEntries(entries[:quarter])

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			lo := quarter * (g + 1)
			hi := lo + quarter
			if g == 2 {
				hi = len(entries)
			}
			// append in small slices to interleave with the readers
			for lo < hi {
				step := lo + 50
				if step > hi {
					step = hi
				}
				w.Append(entries[lo:step])
				lo = step
			}
		}()
	}
	probe := entries[0].SQL
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				s, err := w.Compress(logr.CompressOptions{Clusters: 3, Seed: 1})
				if err != nil {
					t.Error(err)
					return
				}
				s.TotalVerbosity()
				w.Stats()
				w.Queries()
				// probe the codebook-reading paths while appenders extend it
				if _, err := w.Count(probe); err != nil {
					t.Errorf("Count during Append: %v", err)
					return
				}
				if _, err := s.EstimateFrequency(probe); err != nil {
					t.Errorf("EstimateFrequency during Append: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	total := 0
	for _, e := range entries {
		c := e.Count
		if c <= 0 {
			c = 1
		}
		total += c
	}
	stats := w.Stats()
	if got := stats.Queries + stats.StoredProcedures + stats.Unparseable; got != total {
		t.Fatalf("after concurrent appends: %d queries accounted for, want %d", got, total)
	}
	if _, err := w.Compress(logr.CompressOptions{Clusters: 4, Seed: 1}); err != nil {
		t.Fatalf("final compress: %v", err)
	}
}
