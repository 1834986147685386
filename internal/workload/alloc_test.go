package workload

import (
	"fmt"
	"runtime"
	"testing"
)

// TestAddBatchSteadyStateAllocs pins the encode hot path: once every
// distinct SQL string in a stream has been admitted, re-encoding further
// windows of the same workload must not allocate at all — the dedup index,
// job list and result slots are encoder-owned scratch, and replaying a
// known string is pure map lookups and counter bumps.
func TestAddBatchSteadyStateAllocs(t *testing.T) {
	entries := PocketData(PocketDataConfig{TotalQueries: 20000, DistinctTarget: 605, Seed: 1})
	enc := NewEncoder(EncodeOptions{Parallelism: 1})
	enc.AddBatch(entries) // admit every distinct string
	window := entries
	if len(window) > 500 {
		window = window[:500]
	}

	allocs := testing.AllocsPerRun(20, func() {
		enc.AddBatch(window)
	})
	if allocs != 0 {
		t.Fatalf("steady-state AddBatch allocated %.1f times per run, want 0", allocs)
	}
}

// TestAddSteadyStateAllocs is the single-entry form of the same guarantee.
func TestAddSteadyStateAllocs(t *testing.T) {
	entries := PocketData(PocketDataConfig{TotalQueries: 5000, DistinctTarget: 605, Seed: 1})
	enc := NewEncoder(EncodeOptions{Parallelism: 1})
	enc.AddBatch(entries)

	allocs := testing.AllocsPerRun(50, func() {
		for _, e := range entries {
			enc.Add(e)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Add allocated %.1f times per run, want 0", allocs)
	}
}

// novelOfKnownShapes returns n statements none of which e has seen, each
// with a literal-blind fingerprint e already knows: the fingerprint-hit
// path.
func novelOfKnownShapes(lo, n int) []LogEntry {
	out := make([]LogEntry, n)
	for i := range out {
		k := lo + i
		out[i] = LogEntry{SQL: fmt.Sprintf("SELECT a, b FROM t%d WHERE c = %d AND d = 'v%d'", k%40, k, k*7)}
	}
	return out
}

// TestFingerprintHitAllocs pins the path a novel statement of a known shape
// takes: a lex into the encoder's fingerprint buffer, two table lookups, a
// hash and counter arithmetic. Amortized over the hash set's growth it
// allocates nothing, on both entry points.
func TestFingerprintHitAllocs(t *testing.T) {
	enc := NewEncoder(EncodeOptions{Parallelism: 1})
	next := 0
	feed := func(n int) []LogEntry {
		batch := novelOfKnownShapes(next, n)
		next += n
		return batch
	}
	// every shape known, the raw-statement cache past its limit once
	enc.AddBatch(feed(2 * cacheLimit))
	const window = 500
	batches := make([][]LogEntry, 0, 100)
	for i := 0; i < cap(batches); i++ {
		batches = append(batches, feed(window))
	}
	run := 0
	if allocs := testing.AllocsPerRun(50, func() {
		enc.AddBatch(batches[run])
		run++
	}); allocs != 0 {
		t.Fatalf("AddBatch of %d novel statements of known shapes allocated %.1f times per run, want 0", window, allocs)
	}
	if allocs := testing.AllocsPerRun(40, func() {
		for _, en := range batches[run] {
			enc.Add(en)
		}
		run++
	}); allocs != 0 {
		t.Fatalf("Add of %d novel statements of known shapes allocated %.1f times per run, want 0", window, allocs)
	}
	if got := enc.Result().Stats.DistinctQueries; got != next-window*(cap(batches)-run) {
		t.Fatalf("distinct queries %d, want %d", got, next-window*(cap(batches)-run))
	}
}

// TestNovelStatementRetention pins what the encoder keeps per novel
// statement once its memo tables are full: the statement's hash in the
// distinct set, at most 32 bytes with the set's slack, not the statement.
func TestNovelStatementRetention(t *testing.T) {
	enc := NewEncoder(EncodeOptions{Parallelism: 1})
	next := 0
	feed := func(n int) {
		for ; n > 0; n -= 1000 {
			enc.AddBatch(novelOfKnownShapes(next, 1000))
			next += 1000
		}
	}
	heap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	feed(3 * cacheLimit)
	before := heap()
	const n = 200000
	feed(n)
	after := heap()
	per := (float64(after) - float64(before)) / n
	if per > 32 {
		t.Fatalf("the encoder grew %.1f bytes per novel statement, want ≤ 32", per)
	}
	if got := enc.Result().Stats.DistinctQueries; got != next {
		t.Fatalf("distinct queries %d, want %d", got, next)
	}
	t.Logf("%.1f bytes per novel statement", per)
}
