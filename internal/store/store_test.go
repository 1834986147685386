package store

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"logr/internal/core"
	"logr/internal/wal"
	"logr/internal/workload"
)

// streamEntries fabricates n distinct-ish queries cycling over a few tables
// and predicates, deterministic in seed-free fashion.
func streamEntries(n, offset int) []workload.LogEntry {
	tables := []string{"messages", "contacts", "orders", "inventory"}
	out := make([]workload.LogEntry, n)
	for i := range out {
		t := tables[(offset+i)%len(tables)]
		out[i] = workload.LogEntry{
			SQL:   fmt.Sprintf("SELECT c%d FROM %s WHERE k%d = ?", (offset+i)%7, t, (offset+i)%5),
			Count: 1 + (offset+i)%4,
		}
	}
	return out
}

func entriesTotal(es []workload.LogEntry) int {
	t := 0
	for _, e := range es {
		t += e.Count
	}
	return t
}

func TestSealCutsSegments(t *testing.T) {
	s := New(Options{})
	if _, ok := s.Seal(); ok {
		t.Fatal("sealed an empty buffer")
	}
	batch := streamEntries(20, 0)
	s.Append(batch)
	meta, ok := s.Seal()
	if !ok || meta.ID != 0 || meta.EndID != 1 {
		t.Fatalf("first seal = %+v, %v", meta, ok)
	}
	if meta.Queries != entriesTotal(batch) {
		t.Fatalf("segment holds %d queries, appended %d", meta.Queries, entriesTotal(batch))
	}
	if _, ok := s.Seal(); ok {
		t.Fatal("re-sealed with an empty active buffer")
	}
	s.Append(streamEntries(10, 50))
	meta2, ok := s.Seal()
	if !ok || meta2.ID != 1 {
		t.Fatalf("second seal = %+v, %v", meta2, ok)
	}
	// per-segment queries sum to the stream total
	segs := s.Segments()
	sum := 0
	for _, m := range segs {
		sum += m.Queries
	}
	if sum != s.Snapshot().Log.Total() {
		t.Fatalf("segment totals %d != stream total %d", sum, s.Snapshot().Log.Total())
	}
	// epochs are monotone and bracket correctly
	if segs[1].StartEpoch != segs[0].Epoch {
		t.Fatalf("segment 1 start epoch %+v != segment 0 end epoch %+v", segs[1].StartEpoch, segs[0].Epoch)
	}
}

func TestAutoSealThreshold(t *testing.T) {
	s := New(Options{SealThreshold: 100})
	s.Append(streamEntries(200, 0)) // ~500 queries in one batch
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("expected several auto-sealed segments, got %d", len(segs))
	}
	for i, m := range segs[:len(segs)-1] {
		if m.Queries < 100 {
			t.Errorf("segment %d under threshold: %d queries", i, m.Queries)
		}
	}
	// active buffer holds the remainder, below the threshold
	if a := s.ActiveQueries(); a >= 100 {
		t.Errorf("active buffer %d should be below the threshold", a)
	}
}

// TestFirstSegmentSharesSnapshotLog: the first segment's sub-log IS the
// snapshot log, so compressing it is bit-identical to compressing the
// workload directly.
func TestFirstSegmentOracle(t *testing.T) {
	entries := streamEntries(60, 0)
	s := New(Options{})
	s.Append(entries)
	s.Seal()
	opts := core.CompressOptions{K: 3, Seed: 7}

	direct, err := core.Compress(s.Snapshot().Log, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.CompressRange(0, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed.Err != direct.Err {
		t.Fatalf("single-segment error %v != direct %v", res.Compressed.Err, direct.Err)
	}
	if !reflect.DeepEqual(res.Compressed.Mixture, direct.Mixture) {
		t.Fatal("single-segment mixture differs from direct compression")
	}
}

// lgrs is the byte form the range contract is stated in: the binary
// summary artifact of c over the store's codebook.
func lgrs(t *testing.T, s *Store, c *core.Compressed) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSummaryBinary(&buf, c.Mixture, s.Book()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertRangesAreCompressions checks every multi-segment range of s: its
// CompressRange artifact is byte-identical to Compress of its RangeLog at
// the same options, and its epoch is the range's last segment's.
func assertRangesAreCompressions(t *testing.T, label string, s *Store, opts core.CompressOptions) {
	t.Helper()
	segs := s.Segments()
	if len(segs) < 3 {
		t.Fatalf("%s: %d segments; the check needs multi-segment ranges", label, len(segs))
	}
	for i := range segs {
		for j := i + 1; j < len(segs); j++ {
			from, to := segs[i].ID, segs[j].EndID
			got, err := s.CompressRange(from, to, opts)
			if err != nil {
				t.Fatalf("%s: CompressRange(%d, %d): %v", label, from, to, err)
			}
			l, epoch, err := s.RangeLog(from, to)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Compress(l, opts)
			if err != nil {
				t.Fatal(err)
			}
			if got.Epoch != epoch || epoch != segs[j].Epoch {
				t.Fatalf("%s: [%d, %d) epoch %+v, RangeLog %+v, last segment %+v", label, from, to, got.Epoch, epoch, segs[j].Epoch)
			}
			if !bytes.Equal(lgrs(t, s, got.Compressed), lgrs(t, s, want)) {
				t.Fatalf("%s: CompressRange(%d, %d) is not Compress(RangeLog(%d, %d))", label, from, to, from, to)
			}
		}
	}
}

// TestCompressRangeIsCompressOfRangeLog pins the range contract,
// CompressRange ≡ Compress(RangeLog), over every multi-segment range of a
// durable store: live, after a reopen, after DropBefore of the first
// segment and after Compact of a later run. It also checks the cache and
// the range bounds.
func TestCompressRangeIsCompressOfRangeLog(t *testing.T) {
	opts := Options{}
	dir := t.TempDir()
	d, err := Open(dir, opts, DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	// three full segments, two small ones a compaction merges, a full one
	for i, n := range []int{40, 40, 40, 4, 4, 40} {
		if err := d.Append(streamEntries(n, i*40)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Seal(); err != nil {
			t.Fatal(err)
		}
	}
	copts := core.CompressOptions{K: 3, Seed: 1}
	assertRangesAreCompressions(t, "live", d.Mem(), copts)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts, DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertRangesAreCompressions(t, "reopened", re.Mem(), copts)
	if n, err := re.DropBefore(1); err != nil || n != 1 {
		t.Fatalf("DropBefore(1) = %d, %v", n, err)
	}
	assertRangesAreCompressions(t, "after DropBefore", re.Mem(), copts)
	if n, err := re.Compact(50); err != nil || n != 1 {
		t.Fatalf("Compact(50) = %d, %v", n, err)
	}
	assertRangesAreCompressions(t, "after Compact", re.Mem(), copts)
	auto := core.CompressOptions{TargetError: 1, MaxK: 6, Seed: 2}
	assertRangesAreCompressions(t, "auto sweep", re.Mem(), auto)

	s := re.Mem()
	// a repeat is served from the cache; a seal leaves the range's
	// segments, and so the cached summary, in place
	res, err := s.CompressRange(1, 6, copts)
	if err != nil {
		t.Fatal(err)
	}
	if err := re.Append(streamEntries(10, 500)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := re.Seal(); err != nil {
		t.Fatal(err)
	}
	if res2, err := s.CompressRange(1, 6, copts); err != nil || res2.Compressed != res.Compressed {
		t.Fatalf("repeated CompressRange was not served from the cache (err %v)", err)
	}
	if _, err := s.CompressRange(1, 1, copts); err == nil {
		t.Fatal("empty range accepted")
	}
	if _, err := s.CompressRange(0, 6, copts); err == nil {
		t.Fatal("range over a dropped segment accepted")
	}
	if _, err := s.CompressRange(1, 99, copts); err == nil {
		t.Fatal("out-of-bounds range accepted")
	}
}

// TestCompressRangeErrorTarget covers the range path with no component
// budget: K = 0 and a TargetError, the auto sweep over the range's log.
func TestCompressRangeErrorTarget(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 4; i++ {
		s.Append(streamEntries(40, i*40))
		s.Seal()
	}
	const target = 2.0
	opts := core.CompressOptions{TargetError: target, MaxK: 8, Seed: 1}
	res, err := s.CompressRange(0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed.Err > target {
		t.Fatalf("range Err %v above target %v", res.Compressed.Err, target)
	}
	res2, err := s.CompressRange(0, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Compressed != res.Compressed {
		t.Fatal("repeated CompressRange was not served from the cache")
	}
}

func TestDropBefore(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 3; i++ {
		s.Append(streamEntries(20, i*20))
		s.Seal()
	}
	if n := s.DropBefore(2); n != 2 {
		t.Fatalf("DropBefore dropped %d segments, want 2", n)
	}
	segs := s.Segments()
	if len(segs) != 1 || segs[0].ID != 2 {
		t.Fatalf("live segments after drop: %+v", segs)
	}
	if _, err := s.CompressRange(0, 3, core.CompressOptions{K: 2, Seed: 1}); err == nil {
		t.Fatal("range over dropped segments accepted")
	}
	if _, err := s.CompressRange(2, 3, core.CompressOptions{K: 2, Seed: 1}); err != nil {
		t.Fatalf("live range rejected: %v", err)
	}
	// dropping everything is fine; the stream keeps flowing
	s.DropBefore(100)
	s.Append(streamEntries(10, 90))
	if meta, ok := s.Seal(); !ok || meta.ID != 3 {
		t.Fatalf("seal after full drop: %+v, %v", meta, ok)
	}
}

func TestCompactMergesSmallRuns(t *testing.T) {
	s := New(Options{})
	for i := 0; i < 4; i++ {
		s.Append(streamEntries(8, i*8)) // ~20 queries each
		s.Seal()
	}
	before := s.Segments()
	total := 0
	for _, m := range before {
		total += m.Queries
	}
	if n := s.Compact(1000); n != 3 {
		t.Fatalf("Compact eliminated %d segments, want 3", n)
	}
	after := s.Segments()
	if len(after) != 1 {
		t.Fatalf("expected one compacted segment, got %d", len(after))
	}
	m := after[0]
	if m.ID != 0 || m.EndID != 4 {
		t.Fatalf("compacted span = [%d, %d)", m.ID, m.EndID)
	}
	if m.Queries != total {
		t.Fatalf("compacted segment holds %d queries, want %d", m.Queries, total)
	}
	// the compacted span is addressable as a range
	res, err := s.CompressRange(0, 4, core.CompressOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Compressed.Mixture.Total != total {
		t.Fatalf("compacted range total %d != %d", res.Compressed.Mixture.Total, total)
	}
	// interior boundaries are gone
	if _, err := s.CompressRange(1, 4, core.CompressOptions{K: 2, Seed: 1}); err == nil {
		t.Fatal("range splitting a compacted segment accepted")
	}
}

// TestRangeLogDeduplicates: the range's union log folds multiplicities of
// shapes recurring across segments.
func TestRangeLogDeduplicates(t *testing.T) {
	s := New(Options{})
	same := []workload.LogEntry{{SQL: "SELECT a FROM t WHERE x = ?", Count: 5}}
	s.Append(same)
	s.Seal()
	s.Append(same)
	s.Append(streamEntries(5, 0))
	s.Seal()
	l, _, err := s.RangeLog(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if l.Total() != s.Snapshot().Log.Total() {
		t.Fatalf("range log total %d != stream %d", l.Total(), s.Snapshot().Log.Total())
	}
	if l.Distinct() != s.Snapshot().Log.Distinct() {
		t.Fatalf("range log distinct %d != stream %d (dedup failed)", l.Distinct(), s.Snapshot().Log.Distinct())
	}
}

// BenchmarkRangeLog times materializing the log of a range of 1 and of 16
// sealed segments, each holding 2,000 statements of which about 1,500 are
// shapes the store has not seen before.
func BenchmarkRangeLog(b *testing.B) {
	s := New(Options{})
	for seg := 0; seg < 16; seg++ {
		entries := make([]workload.LogEntry, 2000)
		for i := range entries {
			j := seg*1500 + i%1500
			entries[i] = workload.LogEntry{
				SQL:   fmt.Sprintf("SELECT c%d, d%d FROM t%d WHERE k%d = ? AND v%d > ?", j%97, j%89, j%13, j%61, j%7),
				Count: 1 + i%3,
			}
		}
		if err := s.Append(entries); err != nil {
			b.Fatal(err)
		}
		s.Seal()
	}
	for _, n := range []int{1, 16} {
		b.Run(fmt.Sprintf("segments=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.RangeLog(16-n, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
