package store

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"logr/internal/core"
	"logr/internal/vfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// compressBytes is the byte-identity probe the recovery contract is stated
// in: the binary artifact of a full compression of the store's snapshot.
func compressBytes(t *testing.T, s *Store) []byte {
	t.Helper()
	res := s.Snapshot()
	c, err := core.Compress(res.Log, core.CompressOptions{K: 3, Seed: 7})
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	var buf bytes.Buffer
	if err := core.WriteSummaryBinary(&buf, c.Mixture, res.Book); err != nil {
		t.Fatalf("WriteSummaryBinary: %v", err)
	}
	return buf.Bytes()
}

func logsEqual(a, b *core.Log) bool {
	if a.Universe() != b.Universe() || a.Total() != b.Total() || a.Distinct() != b.Distinct() {
		return false
	}
	for i := 0; i < a.Distinct(); i++ {
		if a.Multiplicity(i) != b.Multiplicity(i) || !a.Vector(i).Equal(b.Vector(i)) {
			return false
		}
	}
	return true
}

// assertStoresEquivalent pins the recovery contract: snapshot epoch, full
// pipeline statistics, the encoded log vector for vector, the segment
// structure, and the byte-identical Compress artifact.
func assertStoresEquivalent(t *testing.T, label string, got, want *Store) {
	t.Helper()
	gres, wres := got.Snapshot(), want.Snapshot()
	if gres.Epoch != wres.Epoch {
		t.Fatalf("%s: epoch %+v != %+v", label, gres.Epoch, wres.Epoch)
	}
	if gres.Stats != wres.Stats {
		t.Fatalf("%s: stats diverged:\n got %+v\nwant %+v", label, gres.Stats, wres.Stats)
	}
	if !logsEqual(gres.Log, wres.Log) {
		t.Fatalf("%s: snapshot logs diverged", label)
	}
	if !slices.Equal(got.Segments(), want.Segments()) {
		t.Fatalf("%s: segments diverged:\n got %+v\nwant %+v", label, got.Segments(), want.Segments())
	}
	if !bytes.Equal(compressBytes(t, got), compressBytes(t, want)) {
		t.Fatalf("%s: Compress artifacts are not byte-identical", label)
	}
}

// durableOp is one scripted operation for the crash tests.
type durableOp struct {
	entries []workload.LogEntry // nil = control op
	kind    byte                // opSeal/opDrop/opCompact when entries == nil
	arg     int
}

func scriptAppend(n, offset int) durableOp { return durableOp{entries: streamEntries(n, offset)} }

func runScript(t *testing.T, d *Durable, script []durableOp) {
	t.Helper()
	for i, op := range script {
		var err error
		switch {
		case op.entries != nil:
			err = d.Append(op.entries)
		case op.kind == opSeal:
			_, _, err = d.Seal()
		case op.kind == opDrop:
			_, err = d.DropBefore(op.arg)
		case op.kind == opCompact:
			_, err = d.Compact(op.arg)
		}
		if err != nil {
			t.Fatalf("script op %d: %v", i, err)
		}
	}
}

// applyOpsToPlainStore feeds decoded WAL ops through the *public* in-memory
// store API with the real operating options (automatic sealing and
// compaction live) — the never-crashed store the recovery contract compares
// against.
func applyOpsToPlainStore(opts Options, ops []walOp) *Store {
	ref := New(opts)
	for _, op := range ops {
		switch op.kind {
		case opEntries:
			ref.Append(op.entries)
		case opSeal:
			ref.Seal()
		case opDrop:
			ref.DropBefore(op.arg)
		case opCompact:
			ref.Compact(op.arg)
		}
	}
	return ref
}

var crashScript = []durableOp{
	scriptAppend(30, 0),
	scriptAppend(45, 10), // crosses the threshold: auto-seal + auto-compact
	{kind: opSeal},
	scriptAppend(40, 40),
	{kind: opSeal},
	{kind: opCompact, arg: 60},
	scriptAppend(70, 90),
	{kind: opDrop, arg: 1},
	scriptAppend(25, 200),
}

func crashOptions() (Options, DurableOptions) {
	return Options{SealThreshold: 120, CompactMinQueries: 50, Encode: workload.EncodeOptions{Parallelism: 2}},
		DurableOptions{Sync: wal.SyncAlways}
}

// TestKillPointRecovery is the crash-recovery property test: the WAL is
// truncated at every record boundary AND at points inside every record, and
// each truncation must recover to a store equivalent to a never-crashed
// in-memory store fed exactly the durable prefix of operations — same
// epoch, statistics, log, segment structure, and byte-identical Compress
// output. Mid-record cuts must round down to the previous boundary.
func TestKillPointRecovery(t *testing.T) {
	opts, dopts := crashOptions()
	dir := t.TempDir()
	d, err := Open(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, crashScript)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, walFileName)
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// record boundaries and the decoded op stream, for prefix references
	var boundaries []int64
	var ops []walOp
	if _, err := wal.Scan(vfs.OS, walPath, func(p []byte, end int64) error {
		op, err := decodeOp(p)
		if err != nil {
			return err
		}
		boundaries = append(boundaries, end)
		ops = append(ops, op)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(boundaries) < 8 {
		t.Fatalf("script produced only %d WAL records; widen it", len(boundaries))
	}

	// every boundary, plus cuts inside the record that follows it (into the
	// header, and into the payload)
	cuts := map[int64]bool{0: true}
	prev := int64(0)
	for _, b := range boundaries {
		cuts[b] = true
		if b-prev > 2 {
			cuts[prev+2] = true // mid-header
		}
		if b-prev > 12 {
			cuts[prev+12] = true // mid-payload
		}
		prev = b
	}
	var cutList []int64
	for c := range cuts {
		cutList = append(cutList, c)
	}
	sort.Slice(cutList, func(i, j int) bool { return cutList[i] < cutList[j] })

	for _, cut := range cutList {
		// durable prefix: records wholly inside the cut
		nrec := 0
		for _, b := range boundaries {
			if b <= cut {
				nrec++
			}
		}
		crashDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(crashDir, walFileName), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := Open(crashDir, opts, dopts)
		if err != nil {
			t.Fatalf("cut=%d: Open: %v", cut, err)
		}
		ref := applyOpsToPlainStore(opts, ops[:nrec])
		assertStoresEquivalent(t, "cut="+itoa(int(cut)), rec.Mem(), ref)
		rec.Close()
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// TestDurableMatchesInMemory: without any crash, the durable store's state
// after a scripted run equals a plain in-memory store's fed the same
// script, including byte-identical windowed range summaries.
func TestDurableMatchesInMemory(t *testing.T) {
	opts := Options{SealThreshold: 100, Encode: workload.EncodeOptions{}}
	dopts := DurableOptions{Sync: wal.SyncNever}
	script := []durableOp{
		scriptAppend(50, 0),
		scriptAppend(60, 5),
		{kind: opSeal},
		scriptAppend(55, 30),
		{kind: opSeal},
	}
	d, err := Open(t.TempDir(), opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	runScript(t, d, script)

	ref := New(opts)
	for _, op := range script {
		switch {
		case op.entries != nil:
			ref.Append(op.entries)
		case op.kind == opSeal:
			ref.Seal()
		}
	}
	assertStoresEquivalent(t, "live", d.Mem(), ref)

	copts := core.CompressOptions{K: 8, Seed: 1}
	from, to := d.Mem().Segments()[0].ID, d.Mem().NextID()
	got, err := d.Mem().CompressRange(from, to, copts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.CompressRange(from, to, copts)
	if err != nil {
		t.Fatal(err)
	}
	gb, wb := summaryArtifact(t, d.Mem(), got), summaryArtifact(t, ref, want)
	if !bytes.Equal(gb, wb) {
		t.Fatal("CompressRange artifacts diverged between durable and in-memory stores")
	}
}

func summaryArtifact(t *testing.T, s *Store, r RangeResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteSummaryBinary(&buf, r.Compressed.Mixture, s.Book()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenRemovesLegacySegmentsDir: a data directory written by an older
// build also holds segments/, one summary artifact per sealed segment.
// testdata/seg-00000000-00000001.seg is such an artifact, written for the
// first segment of the script below. Opening the directory deletes it
// unread, and the store recovers from the WAL alone, equal to an
// in-memory twin.
func TestOpenRemovesLegacySegmentsDir(t *testing.T) {
	const name = "seg-00000000-00000001.seg"
	artifact, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{SealThreshold: 80}
	dopts := DurableOptions{Sync: wal.SyncAlways}
	script := []durableOp{scriptAppend(60, 0), {kind: opSeal}}
	dir := t.TempDir()
	d, err := Open(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	runScript(t, d, script)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(dir, legacySegDir)
	if err := os.MkdirAll(legacy, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, name), artifact, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(legacy, name+".tmp"), artifact[:40], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if _, err := os.Stat(legacy); !os.IsNotExist(err) {
		t.Fatalf("%s survived Open: %v", legacy, err)
	}
	ref := New(opts)
	for _, op := range script {
		if op.entries != nil {
			ref.Append(op.entries)
		} else {
			ref.Seal()
		}
	}
	if len(ref.Segments()) < 2 {
		t.Fatalf("the script cut %d segments; the artifact names the first of several", len(ref.Segments()))
	}
	assertStoresEquivalent(t, "legacy reopen", re.Mem(), ref)
}

// TestClosedDurableRejectsMutations pins the ErrClosed contract.
func TestClosedDurableRejectsMutations(t *testing.T) {
	d, err := Open(t.TempDir(), Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Append(streamEntries(3, 0)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal("second Close must be a no-op")
	}
	if err := d.Append(streamEntries(1, 0)); err != ErrClosed {
		t.Fatalf("Append after Close: %v, want ErrClosed", err)
	}
	if _, _, err := d.Seal(); err != ErrClosed {
		t.Fatalf("Seal after Close: %v, want ErrClosed", err)
	}
	if _, err := d.DropBefore(1); err != ErrClosed {
		t.Fatalf("DropBefore after Close: %v, want ErrClosed", err)
	}
	if _, err := d.Compact(1); err != ErrClosed {
		t.Fatalf("Compact after Close: %v, want ErrClosed", err)
	}
	if err := d.Checkpoint(); err != ErrClosed {
		t.Fatalf("Checkpoint after Close: %v, want ErrClosed", err)
	}
	// reads keep working
	if d.Mem().Snapshot().Log.Total() == 0 {
		t.Fatal("reads should survive Close")
	}
}

// TestSealEmptyBufferWritesNothing: a durable Seal of an empty active
// buffer reports ok == false and logs no WAL record, both on a fresh store
// and right after a seal.
func TestSealEmptyBufferWritesNothing(t *testing.T) {
	d, err := Open(t.TempDir(), Options{}, DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	sealEmpty := func(label string) {
		t.Helper()
		before := d.Durability().WalBytes
		if _, ok, err := d.Seal(); err != nil || ok {
			t.Fatalf("%s: Seal of an empty buffer = ok %v, err %v; want false, nil", label, ok, err)
		}
		if after := d.Durability().WalBytes; after != before {
			t.Fatalf("%s: Seal of an empty buffer grew the WAL from %d to %d bytes", label, before, after)
		}
	}
	sealEmpty("fresh store")
	if err := d.Append(streamEntries(10, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := d.Seal(); err != nil || !ok {
		t.Fatalf("Seal of a filled buffer = ok %v, err %v; want true, nil", ok, err)
	}
	sealEmpty("after a seal")
}

// TestConcurrentDurableIngestAndQuery hammers a durable store with
// concurrent appends, seals and range queries — the daemon's steady state
// — under the race detector.
func TestConcurrentDurableIngestAndQuery(t *testing.T) {
	d, err := Open(t.TempDir(), Options{SealThreshold: 150}, DurableOptions{Sync: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if err := d.Append(streamEntries(60, 0)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	copts := core.CompressOptions{K: 8, Seed: 1}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if err := d.Append(streamEntries(20, g*100+i*7)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			d.Mem().Snapshot()
			if segs := d.Mem().Segments(); len(segs) > 0 {
				from, to := segs[0].ID, segs[len(segs)-1].EndID
				if _, err := d.Mem().CompressRange(from, to, copts); err != nil {
					// a concurrent seal/compact can race the range resolution;
					// only misaligned-range errors are expected
					continue
				}
			}
		}
	}()
	wg.Wait()
	if _, _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	total := d.Mem().Snapshot().Log.Total()
	want := entriesTotal(streamEntries(60, 0))
	for g := 0; g < 4; g++ {
		for i := 0; i < 15; i++ {
			want += entriesTotal(streamEntries(20, g*100+i*7))
		}
	}
	if total != want {
		t.Fatalf("concurrent ingest lost data: %d queries, want %d", total, want)
	}
}

// TestSingleWriterLock: a second Open of a live data directory must fail
// — two WAL writers would interleave records and recovery would silently
// truncate at the first torn one.
func TestSingleWriterLock(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir, Options{}, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}, DurableOptions{}); err == nil {
		t.Fatal("second Open of a locked directory succeeded")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, Options{}, DurableOptions{})
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	re.Close()
}

// TestGroupCommitPipelineRace exercises the decoupled ingest pipeline from
// every side at once — group-commit appends from many goroutines, explicit
// seals, barrier'd reads, statistic estimates and lag polling — under the
// race detector, then proves no acknowledged batch was lost and recovery
// agrees with the live store.
func TestGroupCommitPipelineRace(t *testing.T) {
	dir := t.TempDir()
	opts := Options{SealThreshold: 300}
	dopts := DurableOptions{Sync: wal.SyncInterval, ApplyQueue: 4}
	d, err := Open(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	const writers, rounds, per = 4, 12, 25
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := d.Append(streamEntries(per, g*1000+i*13)); err != nil {
					t.Error(err)
					return
				}
				// append-then-read visibility through the barrier
				d.Barrier()
				if got := d.Mem().TotalQueries(); got == 0 {
					t.Error("barrier'd read saw no data after acked append")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			if _, _, err := d.Seal(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			lag := d.Lag()
			if lag.QueuedBatches > lag.QueueCap {
				t.Errorf("queue depth %d exceeds cap %d", lag.QueuedBatches, lag.QueueCap)
				return
			}
			if lag.AppliedOffset > lag.AckedOffset || lag.LagBytes != lag.AckedOffset-lag.AppliedOffset {
				t.Errorf("applied offset %d, acked %d, lag %d bytes", lag.AppliedOffset, lag.AckedOffset, lag.LagBytes)
				return
			}
			d.Mem().Snapshot()
		}
	}()
	wg.Wait()
	d.Barrier()
	want := 0
	for g := 0; g < writers; g++ {
		for i := 0; i < rounds; i++ {
			want += entriesTotal(streamEntries(per, g*1000+i*13))
		}
	}
	if got := d.Mem().TotalQueries(); got != want {
		t.Fatalf("pipeline lost data: %d queries, want %d", got, want)
	}
	if lag := d.Lag(); lag.QueuedEntries != 0 || lag.AppliedOffset != lag.AckedOffset {
		t.Fatalf("pipeline idle but lag reports backlog: %+v", lag)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Mem().TotalQueries(); got != want {
		t.Fatalf("recovery lost data: %d queries, want %d", got, want)
	}
}
