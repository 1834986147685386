package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logr/internal/wal"
	"logr/internal/workload"
)

// testdata/checkpoint_v2.{head,adm} is a checkpoint written in format
// version 2 — a head and a two-frame admission log that still carried the
// with-constants codebook and every raw statement — over a store fed a
// small US-bank log with noise and a synthetic stream, sealed, then fed a
// PocketData log and a second US-bank log. The constants below were
// recorded from the store that wrote it.
const (
	v2ImageOffset   = 1234
	v2ImageQueries  = 3450
	v2ImageDistinct = 311
	v2ImageDigest   = "fdf1e88188fae61e"
)

// storeDigest hashes what a store's snapshot and segment list expose:
// every statistic, the canonical multiplicities and the log.
func storeDigest(s *Store) string {
	r := s.Snapshot()
	st := r.Stats
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d %d %d %d %d %d %d %.17g %d\n", st.TotalQueries, st.Queries, st.DistinctQueries, st.DistinctNoConst,
		st.DistinctConjunctive, st.DistinctRewritable, st.MaxMultiplicity, st.StoredProcedures, st.Unparseable, st.AvgFeaturesPerQuery, st.FeaturesNoConst)
	fmt.Fprintf(h, "%v\n", r.Counts())
	for i := 0; i < r.Log.Distinct(); i++ {
		fmt.Fprintf(h, "%v %d\n", r.Log.Vector(i).Indices(), r.Log.Multiplicity(i))
	}
	// the descriptors render as they did when the digests were written,
	// when %+v also printed a Summarized flag, false on a restored store
	segs := make([]string, 0, len(s.Segments()))
	for _, m := range s.Segments() {
		segs = append(segs, strings.TrimSuffix(fmt.Sprintf("%+v", m), "}")+" Summarized:false}")
	}
	fmt.Fprintf(h, "[%s]\n", strings.Join(segs, " "))
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func readV2Image(t *testing.T) (head, log []byte) {
	t.Helper()
	head, err := os.ReadFile(filepath.Join("testdata", "checkpoint_v2.head"))
	if err != nil {
		t.Fatal(err)
	}
	if log, err = os.ReadFile(filepath.Join("testdata", "checkpoint_v2.adm")); err != nil {
		t.Fatal(err)
	}
	return head, log
}

// TestCheckpointVersion2Opens: a version-2 checkpoint restores to the same
// totals, distinct count, canonical multiplicities and log it was written
// from, hashing its raw statements and skipping its with-constants
// codebook.
func TestCheckpointVersion2Opens(t *testing.T) {
	head, log := readV2Image(t)
	m, off, err := restoreImage(head, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	st := m.Snapshot().Stats
	if off != v2ImageOffset || st.Queries != v2ImageQueries || st.DistinctQueries != v2ImageDistinct {
		t.Fatalf("restored offset %d, %d queries, %d distinct; want %d, %d, %d",
			off, st.Queries, st.DistinctQueries, v2ImageOffset, v2ImageQueries, v2ImageDistinct)
	}
	if got := storeDigest(m); got != v2ImageDigest {
		t.Fatalf("restored store digest %s, want %s", got, v2ImageDigest)
	}
	// a statement the image admitted is not counted again; a new one is
	again := workload.USBank(workload.USBankConfig{TotalQueries: 800, DistinctTarget: 40, ConstantVariants: 4, NoiseEntries: 8, Seed: 10})
	m.Append(again)
	if got := m.Snapshot().Stats.DistinctQueries; got != v2ImageDistinct {
		t.Fatalf("re-feeding admitted statements moved the distinct count to %d", got)
	}
	m.Append([]workload.LogEntry{{SQL: "SELECT never_seen FROM anywhere"}})
	if got := m.Snapshot().Stats.DistinctQueries; got != v2ImageDistinct+1 {
		t.Fatalf("a new statement moved the distinct count to %d, want %d", got, v2ImageDistinct+1)
	}
}

// TestCheckpointVersion2Upgrade: a data directory whose checkpoint is
// version 2 opens, and its next checkpoint rewrites the admissions into a
// new generation in the current layout, after which it reopens to the same
// store as one that never left memory.
func TestCheckpointVersion2Upgrade(t *testing.T) {
	head, log := readV2Image(t)
	_, adm, _, err := decodeHead(head)
	if err != nil || !adm.legacy {
		t.Fatalf("decodeHead: legacy=%v err=%v", adm.legacy, err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, ckptFileName), head, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, admFileName(adm.gen)), log, 0o644); err != nil {
		t.Fatal(err)
	}
	dopts := DurableOptions{Sync: wal.SyncNever, CheckpointBytes: -1}
	d, err := Open(dir, Options{}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	if got := storeDigest(d.Mem()); got != v2ImageDigest {
		t.Fatalf("opened store digest %s, want %s", got, v2ImageDigest)
	}
	twin, _, err := restoreImage(head, log, Options{})
	if err != nil {
		t.Fatal(err)
	}
	more := streamEntries(40, 7)
	if err := d.Append(more); err != nil {
		t.Fatal(err)
	}
	twin.Append(more)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, admFileName(adm.gen))); !os.IsNotExist(err) {
		t.Fatalf("the version-2 admission log survived the upgrade: %v", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, ckptFileName))
	if err != nil {
		t.Fatal(err)
	}
	if _, up, _, err := decodeHead(data); err != nil || up.legacy || up.gen != adm.gen+1 {
		t.Fatalf("upgraded head: gen %d legacy %v err %v; want gen %d in the current layout", up.gen, up.legacy, err, adm.gen+1)
	}
	d, err = Open(dir, Options{}, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if got, want := storeDigest(d.Mem()), storeDigest(twin); got != want {
		t.Fatalf("reopened upgraded store digest %s, want %s", got, want)
	}
}
