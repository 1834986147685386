package store

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logr/internal/vfs/faultfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// The fault matrix: run one ingest→seal→compact→close workload on the
// fault-injecting filesystem once with no rules to enumerate every IO
// operation it performs, then re-run it once per (operation, fault class)
// pair. Whatever op the fault lands on, the invariants are the same:
//
//   - no panic anywhere;
//   - under wal.SyncAlways, no acknowledged data is lost — a crash image
//     built from only-what-was-fsynced must recover every op that returned
//     nil before the fault;
//   - the reopened store is a consistent store (Open succeeds on every
//     crash image; snapshots, stats and segment listings agree);
//   - when every op in the script was acknowledged, recovery is *equivalent*
//     to a never-crashed in-memory store fed the same script — epoch,
//     statistics, log, segments, and byte-identical Compress output.
//
// Equivalence deliberately requires a fully-acked run: durability is
// at-least-once, so an op whose commit fsync failed can still be applied
// and WAL-resident (exactly like a crash after ack), and a control op that
// replays this way contributes zero queries — invisible to any total-based
// precondition.
//
// The schedule is only near-deterministic: the persist worker's reconciles
// race the foreground ops, so the op count and the position of each fsync
// drift by a few ops from run to run. The sweeps therefore address op
// positions rather than the dry run's individual ops, and reach past the
// dry run's end (see sweepEnd) so a faulted run that happens to be longer
// is covered too; a rule past a run's end fires during the reopen or not
// at all, both of which the checks accept.
//
// By default the matrix samples the op schedule so `go test ./...` stays
// fast; `make chaos` sets LOGR_CHAOS=1 and sweeps every single op.

const matrixDir = "data"

func matrixOptions() (Options, DurableOptions) {
	return Options{SealThreshold: 40, CompactMinQueries: 25, Encode: workload.EncodeOptions{}},
		DurableOptions{Sync: wal.SyncAlways, DisableSealSummaries: true, CheckpointBytes: 1500}
}

// matrixScript exercises every WAL op kind plus the automatic seal and
// compact triggers, and is small enough to re-run hundreds of times.
var matrixScript = []durableOp{
	scriptAppend(25, 0),
	scriptAppend(30, 10), // crosses SealThreshold: auto-seal + auto-compact
	{kind: opSeal},
	scriptAppend(20, 40),
	{kind: opCompact, arg: 30},
	scriptAppend(15, 90),
	{kind: opDrop, arg: 1},
	scriptAppend(12, 150),
}

// matrixRun is one faulted workload's observable outcome.
type matrixRun struct {
	acked      []durableOp // ops that returned nil, in order
	ackedClean bool        // acked is exactly a prefix of matrixScript
	openErr    error       // Open itself failed (fault hit recovery/lock IO)
}

func (r matrixRun) ackedTotal() int {
	total := 0
	for _, op := range r.acked {
		total += entriesTotal(op.entries)
	}
	return total
}

// runMatrixWorkload drives the scripted workload against ffs, recording
// which ops were acknowledged. WaitPersisted after every op keeps the
// background artifact/checkpoint IO inside a near-deterministic schedule so
// the dry-run enumeration stays representative.
func runMatrixWorkload(ffs *faultfs.FS) matrixRun {
	opts, dopts := matrixOptions()
	dopts.FS = ffs
	run := matrixRun{ackedClean: true}
	d, err := Open(matrixDir, opts, dopts)
	if err != nil {
		run.openErr = err
		return run
	}
	failed := false
	for _, op := range matrixScript {
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
		if err == nil {
			run.acked = append(run.acked, op)
			if failed {
				run.ackedClean = false
			}
		} else {
			failed = true
		}
		d.WaitPersisted()
	}
	d.Close()
	return run
}

// safeMatrixRun wraps a faulted run so an injected-fault panic fails the
// test with the offending label instead of killing the process.
func safeMatrixRun(t *testing.T, label string, ffs *faultfs.FS) matrixRun {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: panic under injected fault: %v", label, r)
		}
	}()
	return runMatrixWorkload(ffs)
}

// plainStoreOfOps is the never-crashed reference for a durable op sequence.
func plainStoreOfOps(opts Options, ops []durableOp) *Store {
	ref := New(opts)
	for _, op := range ops {
		switch {
		case op.entries != nil:
			ref.Append(op.entries)
		case op.kind == opSeal:
			ref.Seal()
		case op.kind == opDrop:
			ref.DropBefore(op.arg)
		case op.kind == opCompact:
			ref.Compact(op.arg)
		}
	}
	return ref
}

// verifyReopen opens a post-fault filesystem and checks the loss and
// equivalence invariants against the run's acknowledgement record.
// lossProof says acknowledged data must be present (false only for the
// fsync-lie class, where the disk voided the guarantee).
func verifyReopen(t *testing.T, label string, fsys *faultfs.FS, run matrixRun, lossProof bool) {
	t.Helper()
	opts, dopts := matrixOptions()
	dopts.FS = fsys
	re, err := Open(matrixDir, opts, dopts)
	if err != nil {
		// a rule scheduled past the (shorter) faulted run's op count fires
		// during this recovery instead; one transient recovery-time fault is
		// legitimate coverage, but the second attempt runs fault-free and
		// must succeed
		re, err = Open(matrixDir, opts, dopts)
		if err != nil {
			t.Fatalf("%s: reopen failed twice: %v", label, err)
		}
	}
	defer re.Close()
	got := re.Mem().TotalQueries()
	ackedTotal := run.ackedTotal()
	if lossProof && got < ackedTotal {
		t.Fatalf("%s: lost acknowledged data: recovered %d queries, acked %d", label, got, ackedTotal)
	}
	// internal consistency: the recovered snapshot agrees with itself
	res := re.Mem().Snapshot()
	if res.Log.Total() != got {
		t.Fatalf("%s: snapshot log total %d != TotalQueries %d", label, res.Log.Total(), got)
	}
	if len(run.acked) == len(matrixScript) && got == ackedTotal {
		// every op acked: nothing can have been applied beyond the script,
		// so recovery must be *equivalent* to a never-crashed store fed it
		assertStoresEquivalent(t, label, re.Mem(), plainStoreOfOps(opts, run.acked))
	}
}

// sweepEnd is the last op position a sweep visits for a dry run of n ops:
// n plus an eighth, which covers the run-to-run drift in schedule length.
func sweepEnd(n int64) int64 { return n + n/8 }

// matrixStride picks how densely to sweep the positions up to end: every
// op under `make chaos` (LOGR_CHAOS=1), a sample of ~40 positions per
// class in the default tier-1 run. Deriving it from end rather than the
// dry run's own length keeps it steady while that length drifts.
func matrixStride(t *testing.T, end int64) int64 {
	if os.Getenv("LOGR_CHAOS") != "" {
		return 1
	}
	stride := end / 40
	if stride < 1 {
		stride = 1
	}
	t.Logf("sampling op positions 1..%d with stride %d (set LOGR_CHAOS=1 for the exhaustive sweep)", end, stride)
	return stride
}

// TestFaultMatrix is the systematic sweep: every IO operation of the
// workload × {transient EIO, fatal ENOSPC, torn-write crash}.
func TestFaultMatrix(t *testing.T) {
	dry := faultfs.New()
	ref := safeMatrixRun(t, "dry run", dry)
	if ref.openErr != nil || !ref.ackedClean || len(ref.acked) != len(matrixScript) {
		t.Fatalf("dry run not clean: openErr=%v acked=%d/%d", ref.openErr, len(ref.acked), len(matrixScript))
	}
	n := dry.Ops()
	if n < 50 {
		t.Fatalf("workload performed only %d IO ops; widen the script", n)
	}
	// the dry-run image must also reopen equivalent (clean-shutdown baseline)
	verifyReopen(t, "dry-run reopen", dry, ref, true)

	end := sweepEnd(n)
	stride := matrixStride(t, end)
	for seq := int64(1); seq <= end; seq += stride {
		seq := seq
		t.Run("seq="+itoa(int(seq)), func(t *testing.T) {
			t.Parallel()
			// transient EIO: the op fails once; retried paths recover, the
			// foreground surfaces the error — either way nothing acked is lost
			// and the filesystem stays healthy for the reopen
			ffs := faultfs.New()
			ffs.FailAt(seq, faultfs.EIO)
			run := safeMatrixRun(t, "eio", ffs)
			if run.openErr == nil {
				verifyReopen(t, "eio reopen", ffs, run, true)
			} else {
				verifyReopen(t, "eio reopen after failed open", ffs, matrixRun{ackedClean: true}, true)
			}

			// fatal ENOSPC: no retries, the store degrades (or Open fails);
			// the disk itself stays healthy so reopen must see everything acked
			ffs = faultfs.New()
			ffs.FailAt(seq, faultfs.ENOSPC)
			run = safeMatrixRun(t, "enospc", ffs)
			if run.openErr == nil {
				verifyReopen(t, "enospc reopen", ffs, run, true)
			}

			// torn-write crash: the op lands a 3-byte prefix (if it is a
			// write) and the filesystem freezes; recover from both ends of the
			// crash-outcome spectrum
			ffs = faultfs.New()
			ffs.CrashAt(seq, 3)
			run = safeMatrixRun(t, "crash", ffs)
			if !ffs.Crashed() {
				return // schedule drifted short of seq: a clean run, covered above
			}
			verifyReopen(t, "crash reopen (fsynced only)", ffs.CrashImage(false), run, true)
			verifyReopen(t, "crash reopen (page cache flushed)", ffs.CrashImage(true), run, true)
		})
	}
}

// TestFaultMatrixSyncLies sweeps the fsync-lie class: the fsync at op
// position seq reports success without making anything durable, and the
// filesystem crashes right after it. Acked-data durability is void — the
// disk broke the contract — but the store must still never panic, and
// reopening the crash image must either fail cleanly (a checkpoint whose
// fsync lied is detected by its CRC) or produce a consistent store.
//
// Every position is swept, not only the dry run's fsyncs: an fsync drifts
// by a few ops between runs, so a position the dry run saw as a sync may
// hold another op in the faulted run and vice versa. Where the op at seq
// is not an fsync the lie has nothing to act on, and the subtest checks a
// clean crash after that op instead.
func TestFaultMatrixSyncLies(t *testing.T) {
	dry := faultfs.New()
	if ref := safeMatrixRun(t, "dry run", dry); ref.openErr != nil {
		t.Fatalf("dry run failed to open: %v", ref.openErr)
	}
	syncs := 0
	for _, op := range dry.Trace() {
		if op.Kind == "sync" {
			syncs++
		}
	}
	if syncs < 5 {
		t.Fatalf("workload performed only %d fsyncs; widen the script", syncs)
	}
	for seq := int64(1); seq <= sweepEnd(dry.Ops()); seq++ {
		seq := seq
		t.Run("sync="+itoa(int(seq)), func(t *testing.T) {
			t.Parallel()
			ffs := faultfs.New()
			ffs.LieSyncAt(seq)
			ffs.CrashAt(seq+1, 0)
			run := safeMatrixRun(t, "sync-lie", ffs)
			if !ffs.Crashed() {
				return
			}
			img := ffs.CrashImage(false)
			opts, dopts := matrixOptions()
			dopts.FS = img
			re, err := Open(matrixDir, opts, dopts)
			if err != nil {
				// a detected lie (torn checkpoint) is a clean refusal, not a bug
				return
			}
			defer re.Close()
			res := re.Mem().Snapshot()
			if res.Log.Total() != re.Mem().TotalQueries() {
				t.Fatalf("inconsistent recovery after fsync lie: log %d != total %d",
					res.Log.Total(), re.Mem().TotalQueries())
			}
			_ = run
		})
	}
}

// TestDegradedModeRecovery walks the full degrade → probe → re-arm cycle
// and pins recovery equivalence across it: a fatal WAL fault flips the
// store read-only with structured errors, reads keep serving, the probe
// re-arms writes once the disk heals, and a reopen at the end is
// equivalent to a never-crashed store fed every applied batch.
func TestDegradedModeRecovery(t *testing.T) {
	ffs := faultfs.New()
	opts := Options{}
	dopts := DurableOptions{Sync: wal.SyncAlways, DisableSealSummaries: true, FS: ffs}
	d, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	a := streamEntries(30, 0)
	if err := d.Append(a); err != nil {
		t.Fatal(err)
	}

	// one fatal fault on the next WAL flush: no retries, immediate degrade.
	// The batch is already accepted and applied in memory when the commit
	// fsync path fails — at-least-once, exactly like a crash after ack.
	ffs.AddRule(faultfs.Rule{Kind: "write", Path: walFileName, Err: faultfs.ENOSPC})
	b := streamEntries(20, 50)
	if err := d.Append(b); err == nil {
		t.Fatal("Append through a full disk reported success")
	}
	if !d.Degraded() {
		t.Fatal("store not degraded after a fatal WAL fault")
	}
	if err := d.Append(b); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Append error = %v, want ErrDegraded", err)
	}
	if _, _, err := d.Seal(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Seal error = %v, want ErrDegraded", err)
	}
	if err := d.Err(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded Err() = %v, want ErrDegraded", err)
	}
	// reads keep serving the applied state (a and the applied-but-unacked b)
	d.Barrier()
	if got, want := d.Mem().TotalQueries(), entriesTotal(a)+entriesTotal(b); got != want {
		t.Fatalf("degraded reads see %d queries, want %d", got, want)
	}

	// the rule is spent, so the disk is healthy again: the probe must
	// re-arm writes (fresh checkpoint + fresh WAL tail) on its own
	deadline := time.Now().Add(15 * time.Second)
	for d.Degraded() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if d.Degraded() {
		t.Fatal("probe never re-armed the healthy disk")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err() after re-arm = %v, want nil", err)
	}
	dur := d.Durability()
	if dur.CheckpointOffset == 0 {
		t.Fatal("re-arm did not checkpoint the in-memory state")
	}

	c := streamEntries(25, 100)
	if err := d.Append(c); err != nil {
		t.Fatalf("Append after re-arm: %v", err)
	}
	if _, _, err := d.Seal(); err != nil {
		t.Fatalf("Seal after re-arm: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close after recovery: %v", err)
	}

	re, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	ref := New(opts)
	ref.Append(a)
	ref.Append(b)
	ref.Append(c)
	ref.Seal()
	assertStoresEquivalent(t, "degrade/recover", re.Mem(), ref)
}

// TestCheckpointBoundsRecoveryReplay pins the point of checkpointing: after
// N sealed-and-checkpointed rounds, reopening reads only the WAL tail since
// the last checkpoint — measured in actual bytes read from the log file —
// and still recovers the full store exactly.
func TestCheckpointBoundsRecoveryReplay(t *testing.T) {
	ffs := faultfs.New()
	opts := Options{}
	dopts := DurableOptions{Sync: wal.SyncAlways, DisableSealSummaries: true, CheckpointBytes: -1, FS: ffs}
	d, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(opts)
	for i := 0; i < 5; i++ {
		batch := streamEntries(40, i*17)
		if err := d.Append(batch); err != nil {
			t.Fatal(err)
		}
		if _, _, err := d.Seal(); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		ref.Append(batch)
		ref.Seal()
	}
	// an unsealed, un-checkpointed tail: the only records replay may read
	tailBatch := streamEntries(12, 900)
	if err := d.Append(tailBatch); err != nil {
		t.Fatal(err)
	}
	ref.Append(tailBatch)

	dur := d.Durability()
	if dur.CheckpointOffset == 0 {
		t.Fatal("no checkpoint recorded")
	}
	if dur.WalBytes <= 0 {
		t.Fatal("tail append left no WAL bytes")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(matrixDir, walFileName)
	before := ffs.ReadBytes(walPath)
	re, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	replayed := ffs.ReadBytes(walPath) - before
	// the rotated log holds only the tail: its on-disk size is the tail plus
	// the rotation header, and recovery may not read more than that
	if slack := dur.WalBytes + 64; replayed > slack {
		t.Fatalf("recovery read %d WAL bytes; the checkpointed tail is only %d", replayed, dur.WalBytes)
	}
	if replayed == 0 {
		t.Fatal("recovery read no WAL bytes at all; tail replay is broken")
	}
	assertStoresEquivalent(t, "checkpointed reopen", re.Mem(), ref)

	rdur := re.Durability()
	if rdur.CheckpointOffset != dur.CheckpointOffset {
		t.Fatalf("reopen checkpoint offset %d, want %d", rdur.CheckpointOffset, dur.CheckpointOffset)
	}
}

// TestAutoCheckpoint: the persist worker takes checkpoints by itself once
// the WAL outgrows CheckpointBytes, and the store reopens equivalent.
func TestAutoCheckpoint(t *testing.T) {
	ffs := faultfs.New()
	opts := Options{SealThreshold: 60}
	dopts := DurableOptions{Sync: wal.SyncAlways, DisableSealSummaries: true, CheckpointBytes: 512, FS: ffs}
	d, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	ref := New(opts)
	for i := 0; i < 6; i++ {
		batch := streamEntries(30, i*11)
		if err := d.Append(batch); err != nil {
			t.Fatal(err)
		}
		ref.Append(batch)
		d.WaitPersisted()
	}
	if off := d.Durability().CheckpointOffset; off == 0 {
		t.Fatal("WAL grew far past CheckpointBytes without an automatic checkpoint")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertStoresEquivalent(t, "auto-checkpoint reopen", re.Mem(), ref)
}

// TestCrashBetweenTempWriteAndRename pins the startup GC: a crash after an
// artifact's temp file is fully written and fsynced but before its rename
// strands a *.tmp file; reopening must sweep it, recover the data from the
// WAL, and rebuild the artifact.
func TestCrashBetweenTempWriteAndRename(t *testing.T) {
	ffs := faultfs.New()
	opts := Options{}
	dopts := DurableOptions{Sync: wal.SyncAlways, DisableSealSummaries: true, CheckpointBytes: -1, FS: ffs}
	d, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	batch := streamEntries(50, 0)
	if err := d.Append(batch); err != nil {
		t.Fatal(err)
	}
	// crash exactly on the artifact's tmp→live rename
	ffs.AddRule(faultfs.Rule{Kind: "rename", Path: ".seg.tmp", Crash: true})
	if _, _, err := d.Seal(); err != nil {
		t.Fatal(err)
	}
	d.WaitPersisted()
	d.Close() // the filesystem is frozen; close errors are expected
	if !ffs.Crashed() {
		t.Fatal("the artifact rename never happened; the persist path changed?")
	}

	img := ffs.CrashImage(false)
	dopts.FS = img
	re, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatalf("reopen after stranded temp file: %v", err)
	}
	defer re.Close()
	for _, dirn := range []string{matrixDir, filepath.Join(matrixDir, segDirName)} {
		ents, err := img.ReadDir(dirn)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			if strings.HasSuffix(e.Name(), ".tmp") {
				t.Fatalf("stranded temp file %s/%s survived startup GC", dirn, e.Name())
			}
		}
	}
	ref := New(opts)
	ref.Append(batch)
	ref.Seal()
	assertStoresEquivalent(t, "tmp-strand recovery", re.Mem(), ref)
	// the persist worker rebuilds the artifact the crash destroyed
	re.WaitPersisted()
	name := segFileName(metaOf(re.Mem(), 0))
	if _, err := img.Stat(filepath.Join(matrixDir, segDirName, name)); err != nil {
		t.Fatalf("artifact %s not rebuilt after recovery: %v", name, err)
	}
}
