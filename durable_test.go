package logr

import (
	"bytes"
	"testing"
)

// TestOpenDirLifecycle drives the public durable API end to end: open,
// ingest, seal, query, close, reopen — nothing may be lost and the
// compressed artifact must be byte-identical across the restart.
func TestOpenDirLifecycle(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenDir(dir, Options{Sync: SyncAlways, SegmentThreshold: 400})
	if err != nil {
		t.Fatal(err)
	}
	if w.Dir() != dir {
		t.Fatalf("Dir() = %q, want %q", w.Dir(), dir)
	}
	if err := w.Append(toyEntries()); err != nil {
		t.Fatal(err)
	}
	if _, ok := w.Seal(); !ok {
		t.Fatal("Seal failed on a non-empty buffer")
	}
	if err := w.Append([]Entry{{SQL: "SELECT balance FROM accounts WHERE owner_id = ?", Count: 42}}); err != nil {
		t.Fatal(err)
	}
	queries := w.Queries()
	count, err := w.Count("SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	s, err := w.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if err := s.Save(&before); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(toyEntries()); err == nil {
		t.Fatal("Append after Close should fail")
	}

	re, err := OpenDir(dir, Options{Sync: SyncAlways, SegmentThreshold: 400})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Queries() != queries {
		t.Fatalf("reopened with %d queries, want %d", re.Queries(), queries)
	}
	count2, err := re.Count("SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		t.Fatal(err)
	}
	if count2 != count {
		t.Fatalf("reopened count %d, want %d", count2, count)
	}
	segs := re.Segments()
	if len(segs) == 0 {
		t.Fatal("reopened with no sealed segments")
	}
	s2, err := re.Compress(CompressOptions{Clusters: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var after bytes.Buffer
	if err := s2.Save(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("compressed artifact not byte-identical across restart")
	}
	if re.Err() != nil {
		t.Fatalf("sticky error on clean lifecycle: %v", re.Err())
	}
}

// TestInMemoryWorkloadDurabilityNoOps: the durable entry points are safe
// no-ops on in-memory workloads.
func TestInMemoryWorkloadDurabilityNoOps(t *testing.T) {
	w := FromEntries(toyEntries())
	if w.Dir() != "" {
		t.Fatal("in-memory workload reports a directory")
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	// Append still works after the no-op Close
	if err := w.Append([]Entry{{SQL: "SELECT 1 FROM t", Count: 1}}); err != nil {
		t.Fatal(err)
	}
}
