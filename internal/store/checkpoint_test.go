package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"logr/internal/binenc"
	"logr/internal/core"
	"logr/internal/obs"
	"logr/internal/vfs"
	"logr/internal/vfs/faultfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// checkpointStore builds an in-memory store with every kind of durable
// state live: multiple segments (one auto-sealed, one compacted span), a
// non-trivial boundary, retention history, and an active buffer.
func checkpointStore(opts Options) *Store {
	s := New(opts)
	s.Append(streamEntries(60, 0))
	s.Seal()
	s.Append(streamEntries(45, 20))
	s.Seal()
	s.Compact(120)
	s.Append(streamEntries(70, 90))
	s.Seal()
	s.DropBefore(1)
	s.Append(streamEntries(25, 200)) // active, unsealed tail
	return s
}

// checkpointImage takes one more checkpoint of s the way writeCheckpoint
// does, minus the files: it extends log by the frame for what the encoder
// admitted past adm and returns the head vouching for the result.
func checkpointImage(off int64, s *Store, adm admission, log []byte) (head, extended []byte, next admission) {
	frame, state, mark := s.checkpointState(adm.mark)
	log = append(log, frame...)
	adm.len, adm.crc, adm.mark = int64(len(log)), crc32.ChecksumIEEE(log), mark
	return encodeHead(off, adm, state), log, adm
}

// restoreImage is loadCheckpoint on byte strings.
func restoreImage(head, log []byte, opts Options) (*Store, int64, error) {
	off, adm, state, err := decodeHead(head)
	if err != nil {
		return nil, 0, err
	}
	enc := workload.NewEncoder(opts.Encode)
	if err := readAdmissions(bytes.NewReader(log), adm, enc); err != nil {
		return nil, 0, err
	}
	mem, err := restoreState(state, enc, opts)
	return mem, off, err
}

// TestCheckpointRoundTrip pins the checkpoint codec: encode the full store
// state, decode it, and the restored store must be equivalent — and must
// stay equivalent under further identical ingest, which is what proves the
// incremental encoder state (codebook, dedup table, statistics) was
// captured exactly rather than approximated. A head resting on several
// admission frames must restore the same store as one resting on a single
// full frame.
func TestCheckpointRoundTrip(t *testing.T) {
	opts, _ := crashOptions()
	s := checkpointStore(opts)
	head, log, _ := checkpointImage(7777, s, admission{}, nil)
	if len(log) == 0 {
		t.Fatal("a store with admitted statements produced no admission frame")
	}
	mem, off, err := restoreImage(head, log, opts)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if off != 7777 {
		t.Fatalf("checkpoint offset %d, want 7777", off)
	}
	assertStoresEquivalent(t, "restored from one full frame", mem, s)

	// incremental: the same stream checkpointed after every batch
	inc := New(opts)
	ref := New(opts)
	var adm admission
	head, log = nil, nil
	for i := 0; i < 5; i++ {
		batch := streamEntries(35, i*11)
		inc.Append(batch)
		ref.Append(batch)
		if i%2 == 1 {
			inc.Seal()
			ref.Seal()
		}
		head, log, adm = checkpointImage(int64(100+i), inc, adm, log)
	}
	// a checkpoint with nothing new admitted appends nothing
	if _, same, _ := checkpointImage(200, inc, adm, log); len(same) != len(log) {
		t.Fatalf("an empty delta grew the admission log from %d to %d bytes", len(log), len(same))
	}
	if mem, _, err = restoreImage(head, log, opts); err != nil {
		t.Fatalf("restore from five frames: %v", err)
	}
	assertStoresEquivalent(t, "restored from deltas", mem, ref)

	// the restored encoder must continue the stream identically
	tail := streamEntries(40, 300)
	ref.Append(tail)
	mem.Append(tail)
	ref.Seal()
	mem.Seal()
	assertStoresEquivalent(t, "restored+tail", mem, ref)

	// leftovers past the recorded length are never read
	if _, _, err := restoreImage(head, append(log[:len(log):len(log)], "torn frame"...), opts); err != nil {
		t.Fatalf("bytes past the recorded length broke the restore: %v", err)
	}
}

// TestCheckpointStateIsSubLogs: a sealed segment keeps its sub-log
// encoded, and the checkpoint state copies those bytes. After a scripted
// seal, compact and drop sequence the state must be byte-identical to the
// state written by encoding every decoded segment with appendSubLog, each
// segment's bytes must be appendSubLog of its own decoding, and a store
// restored from the state must write the same state again.
func TestCheckpointStateIsSubLogs(t *testing.T) {
	opts, _ := crashOptions()
	s := checkpointStore(opts)
	s.Append(streamEntries(30, 400))
	s.Seal()
	s.Append(streamEntries(10, 500))
	s.Seal()
	s.Compact(1 << 20)
	s.Append(streamEntries(50, 600))
	s.Seal()
	if len(s.segs) < 2 {
		t.Fatalf("the script left %d segments; the check wants several", len(s.segs))
	}

	_, state, _ := s.checkpointState(workload.StateMark{})
	want := s.enc.AppendCounters(nil)
	want = binary.AppendUvarint(want, uint64(s.nextID))
	want = appendEpoch(want, s.boundaryEpoch)
	want = binary.AppendUvarint(want, uint64(len(s.boundary)))
	for _, c := range s.boundary {
		want = binary.AppendUvarint(want, uint64(c))
	}
	want = binary.AppendUvarint(want, uint64(len(s.segs)))
	for _, sg := range s.segs {
		l := sg.log()
		if sub := appendSubLog(nil, l); !bytes.Equal(sub, sg.sub) {
			t.Fatalf("segment %d: its bytes are not appendSubLog of their decoding", sg.meta.ID)
		}
		if sg.meta.Queries != l.Total() || sg.meta.Distinct != l.Distinct() {
			t.Fatalf("segment %d: meta %+v, sub-log holds %d queries, %d distinct", sg.meta.ID, sg.meta, l.Total(), l.Distinct())
		}
		want = binary.AppendUvarint(want, uint64(sg.meta.ID))
		want = binary.AppendUvarint(want, uint64(sg.meta.EndID))
		want = appendEpoch(want, sg.meta.StartEpoch)
		want = appendEpoch(want, sg.meta.Epoch)
		want = appendSubLog(want, l)
	}
	if !bytes.Equal(state, want) {
		t.Fatalf("checkpoint state (%d bytes) differs from appendSubLog over the decoded segments (%d bytes)", len(state), len(want))
	}

	head, log, _ := checkpointImage(1, s, admission{}, nil)
	mem, _, err := restoreImage(head, log, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, again, _ := mem.checkpointState(workload.StateMark{}); !bytes.Equal(again, state) {
		t.Fatal("a restored store writes a different checkpoint state")
	}
}

// TestReadSubLog: readSubLog decodes what appendSubLog writes to the log
// it was written from, and fails on what appendSubLog never writes: a
// zero multiplicity, a repeated bit, a bit past the universe, a universe
// past the codebook, a truncation. Without build it stops where the build
// stops, fails where it fails and reports the same size. Every truncation
// and single-byte change of those sub-logs either fails or decodes to a
// log of positive multiplicities that round-trips through appendSubLog,
// and a restore refuses a checkpoint whose segment fails, though its CRC
// holds.
func TestReadSubLog(t *testing.T) {
	const maxUniverse = 1 << 20
	uv := func(vs ...int) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.AppendUvarint(b, uint64(v))
		}
		return b
	}
	decode := func(sub []byte) (*core.Log, error) {
		r := binenc.NewReader(sub)
		l, total, distinct := readSubLog(r, maxUniverse, true)
		sized := binenc.NewReader(sub)
		_, stotal, sdistinct := readSubLog(sized, maxUniverse, false)
		if (r.Err() == nil) != (sized.Err() == nil) || r.Len() != sized.Len() || total != stotal || distinct != sdistinct {
			t.Fatalf("% x: built, stops at %d (err %v) with %d queries, %d distinct; validated, at %d (err %v) with %d, %d",
				sub, len(sub)-r.Len(), r.Err(), total, distinct, len(sub)-sized.Len(), sized.Err(), stotal, sdistinct)
		}
		if r.Err() == nil && (total != l.Total() || distinct != l.Distinct()) {
			t.Fatalf("% x: reports %d queries, %d distinct for a log of %d, %d", sub, total, distinct, l.Total(), l.Distinct())
		}
		if r.Err() == nil && r.Len() != 0 {
			return nil, fmt.Errorf("%d bytes left over", r.Len())
		}
		return l, r.Err()
	}
	sameLog := func(a, b *core.Log) bool {
		if a.Universe() != b.Universe() || a.Total() != b.Total() || a.Distinct() != b.Distinct() {
			return false
		}
		for i := 0; i < a.Distinct(); i++ {
			if !a.Vector(i).Equal(b.Vector(i)) || a.Multiplicity(i) != b.Multiplicity(i) {
				return false
			}
		}
		return true
	}
	checkDecoded := func(sub []byte) {
		t.Helper()
		l, err := decode(sub)
		if err != nil {
			return
		}
		for i := 0; i < l.Distinct(); i++ {
			if l.Multiplicity(i) <= 0 {
				t.Fatalf("% x: decoded multiplicity %d", sub, l.Multiplicity(i))
			}
		}
		if back, err := decode(appendSubLog(nil, l)); err != nil || !sameLog(back, l) {
			t.Fatalf("% x: the decoded log does not round-trip (err %v)", sub, err)
		}
	}

	real := checkpointStore(Options{}).Snapshot().Log
	good := [][]byte{
		appendSubLog(nil, real),
		uv(10, 3, 2, 2, 1, 4, 1, 1, 3, 5, 2, 0, 9), // {1,5} ×2, {3} ×1, {0,9} ×5
		uv(10, 2, 1, 0, 4, 1, 0),                   // {} ×1, {0} ×4
	}
	if l, err := decode(good[0]); err != nil || !sameLog(l, real) {
		t.Fatalf("appendSubLog's own bytes decode to a different log (err %v)", err)
	}
	for _, sub := range [][]byte{
		uv(10, 1, 0, 1, 3),            // a zero multiplicity
		uv(10, 1, 1, 2, 1, 0),         // bit 1 twice
		uv(10, 1, 1, 2, 4, 6),         // a bit past the universe
		uv(1<<40, 1, 1, 0),            // a universe past the codebook
		uv(10, 2, 1, 1, 3),            // one vector of two
		uv(10, 1, 1, 2, 1),            // one bit of two
		append(uv(10, 1, 1, 1), 0x80), // a torn varint
	} {
		if _, err := decode(sub); err == nil {
			t.Errorf("% x: decoded, want a failure", sub)
		}
	}
	for _, sub := range good {
		for n := 0; n <= len(sub); n++ {
			checkDecoded(sub[:n])
		}
		for i := range sub {
			for _, x := range []byte{0, 1, 0x7f, 0x80, 0xff} {
				mut := bytes.Clone(sub)
				mut[i] = x
				checkDecoded(mut)
			}
		}
	}

	opts := Options{SealThreshold: 50}
	s := New(opts)
	s.Append(streamEntries(80, 0))
	s.Seal()
	u := s.segs[0].meta.Epoch.Universe
	for _, tc := range []struct {
		sub []byte
		ok  bool
	}{{uv(u, 2, 1, 1, 3, 2, 1, 4), true}, {uv(u, 2, 1, 1, 3, 0, 1, 4), false}, {uv(u, 1, 1, 2, 3, 0), false}} {
		s.segs[0].sub = tc.sub
		head, log, _ := checkpointImage(1, s, admission{}, nil)
		if _, _, err := restoreImage(head, log, opts); (err == nil) != tc.ok {
			t.Fatalf("% x: restore error %v, want success %v", tc.sub, err, tc.ok)
		}
	}
}

// TestCheckpointCorruption: every flipped byte and every truncation, of the
// head or of the admission log, must surface as an error, never a panic and
// never a silently wrong store.
func TestCheckpointCorruption(t *testing.T) {
	opts := Options{SealThreshold: 50, Encode: workload.EncodeOptions{}}
	s := New(opts)
	s.Append(streamEntries(80, 0))
	s.Seal()
	head, log, _ := checkpointImage(123, s, admission{}, nil)

	if _, _, err := restoreImage(head, log, opts); err != nil {
		t.Fatalf("pristine checkpoint rejected: %v", err)
	}
	for _, part := range []struct {
		name    string
		blob    []byte
		restore func(bad []byte) error
	}{
		{"head", head, func(bad []byte) error { _, _, err := restoreImage(bad, log, opts); return err }},
		{"admission log", log, func(bad []byte) error { _, _, err := restoreImage(head, bad, opts); return err }},
	} {
		for i := 0; i < len(part.blob); i += 3 {
			bad := append([]byte(nil), part.blob...)
			bad[i] ^= 0x41
			if part.restore(bad) == nil {
				t.Fatalf("%s: flip at byte %d went undetected", part.name, i)
			}
		}
		for l := 0; l < len(part.blob); l += 5 {
			if part.restore(part.blob[:l]) == nil {
				t.Fatalf("%s: truncation to %d bytes went undetected", part.name, l)
			}
		}
	}
}

// checkpointFaultOptions: explicit checkpoints only, every ack on disk.
func checkpointFaultOptions(ffs *faultfs.FS) (Options, DurableOptions) {
	return Options{SealThreshold: 60},
		DurableOptions{Sync: wal.SyncAlways, CheckpointBytes: -1, FS: ffs}
}

// TestCheckpointCrashOrdering drives the two-file protocol through the
// crash points it has to survive. Every image that can follow from honest
// fsyncs must reopen equivalent to the never-crashed reference; an image
// that cannot (the log lost bytes its head vouches for) must refuse to
// open rather than restore a different store.
func TestCheckpointCrashOrdering(t *testing.T) {
	batches := [][]workload.LogEntry{streamEntries(40, 0), streamEntries(40, 33), streamEntries(30, 71)}
	reference := func(opts Options) *Store {
		ref := New(opts)
		for _, b := range batches {
			ref.Append(b)
		}
		return ref
	}
	// run appends a batch, checkpoints, appends two more, arms the fault and
	// attempts a second checkpoint, whose error it returns
	run := func(t *testing.T, arm func(ffs *faultfs.FS)) (*faultfs.FS, error) {
		t.Helper()
		ffs := faultfs.New()
		opts, dopts := checkpointFaultOptions(ffs)
		d, err := Open(matrixDir, opts, dopts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Append(batches[0]); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := d.Append(batches[1]); err != nil {
			t.Fatal(err)
		}
		if err := d.Append(batches[2]); err != nil {
			t.Fatal(err)
		}
		arm(ffs)
		err = d.Checkpoint()
		d.Close() // a crashed filesystem is frozen; close errors are expected then
		return ffs, err
	}
	crashed := func(t *testing.T, ffs *faultfs.FS, err error) {
		t.Helper()
		if err == nil || !ffs.Crashed() {
			t.Fatalf("the armed crash never fired (checkpoint error: %v); the checkpoint's IO schedule changed?", err)
		}
	}
	reopenEquivalent := func(t *testing.T, label string, img *faultfs.FS) {
		t.Helper()
		opts, dopts := checkpointFaultOptions(img)
		re, err := Open(matrixDir, opts, dopts)
		if err != nil {
			t.Fatalf("%s: reopen: %v", label, err)
		}
		defer re.Close()
		assertStoresEquivalent(t, label, re.Mem(), reference(opts))
		// and the next checkpoint builds on the recovered position
		if err := re.Checkpoint(); err != nil {
			t.Fatalf("%s: checkpoint after recovery: %v", label, err)
		}
	}

	t.Run("crash between admission fsync and head rename", func(t *testing.T) {
		ffs, err := run(t, func(ffs *faultfs.FS) {
			ffs.AddRule(faultfs.Rule{Kind: "rename", Path: ckptFileName + ".tmp", Crash: true})
		})
		crashed(t, ffs, err)
		// the second frame is on disk, the head still records the first
		img := ffs.CrashImage(false)
		info, err := img.Stat(filepath.Join(matrixDir, admFileName(0)))
		if err != nil {
			t.Fatal(err)
		}
		data, err := vfs.ReadFile(img, filepath.Join(matrixDir, ckptFileName))
		if err != nil {
			t.Fatal(err)
		}
		_, adm, _, err := decodeHead(data)
		if err != nil {
			t.Fatal(err)
		}
		if info.Size() <= adm.len {
			t.Fatalf("admission log holds %d bytes, head records %d: the crash did not land after the append", info.Size(), adm.len)
		}
		reopenEquivalent(t, "fsynced only", img)
		reopenEquivalent(t, "page cache flushed", ffs.CrashImage(true))
	})

	t.Run("torn admission tail", func(t *testing.T) {
		ffs, err := run(t, func(ffs *faultfs.FS) {
			ffs.AddRule(faultfs.Rule{Kind: "write", Path: admFilePrefix, ShortWrite: 11, Crash: true})
		})
		crashed(t, ffs, err)
		reopenEquivalent(t, "fsynced only", ffs.CrashImage(false))
		reopenEquivalent(t, "page cache flushed", ffs.CrashImage(true))
	})

	t.Run("admission log shorter than the head records", func(t *testing.T) {
		// the admission fsync lies, the head lands, power dies: the head now
		// vouches for bytes that never reached the disk
		ffs, err := run(t, func(ffs *faultfs.FS) {
			ffs.AddRule(faultfs.Rule{Kind: "sync", Path: admFilePrefix, SyncLies: true})
		})
		if err != nil {
			t.Fatalf("checkpoint over a lying fsync: %v", err)
		}
		opts, dopts := checkpointFaultOptions(ffs.CrashImage(false))
		re, err := Open(matrixDir, opts, dopts)
		if err == nil {
			re.Close()
			t.Fatal("a head vouching for admission bytes the disk lost opened without error")
		}
		if !strings.Contains(err.Error(), "shorter") {
			t.Fatalf("open error %q does not say the admission log is short", err)
		}
	})
}

// TestCheckpointVersion1Rejected: a head written by the one-file format is
// refused with an error that names the format, not misparsed.
func TestCheckpointVersion1Rejected(t *testing.T) {
	dir := t.TempDir()
	v1 := append([]byte(ckptMagic), 1)
	v1 = append(v1, make([]byte, 64)...)
	if err := os.WriteFile(filepath.Join(dir, ckptFileName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := Open(dir, Options{}, DurableOptions{})
	if err == nil {
		d.Close()
		t.Fatal("a version-1 checkpoint opened without error")
	}
	if !strings.Contains(err.Error(), "version 1") {
		t.Fatalf("open error %q does not name the checkpoint's format version", err)
	}
}

// TestCheckpointBytesLinear is the point of the admission log, as a count:
// over a stream in which every statement is new, the bytes all checkpoints
// together write stay within a constant of the state itself plus one head
// per checkpoint. Rewriting the whole state at every checkpoint writes
// about checkpoints/2 times the state and fails this by a wide margin.
func TestCheckpointBytesLinear(t *testing.T) {
	reg := obs.NewRegistry()
	opts := Options{}
	dopts := DurableOptions{Sync: wal.SyncNever, CheckpointBytes: -1, Obs: reg}
	d, err := Open(t.TempDir(), opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const rounds, perRound = 40, 50
	for i := 0; i < rounds; i++ {
		batch := make([]workload.LogEntry, perRound)
		for j := range batch {
			// 8 shapes, every statement distinct by its constant
			n := i*perRound + j
			batch[j] = workload.LogEntry{SQL: fmt.Sprintf("SELECT c%d FROM accounts WHERE id = %d", n%8, 1000000+n), Count: 1}
		}
		if err := d.Append(batch); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Counter("logr_checkpoints_total", "").Value(); got != rounds {
		t.Fatalf("took %d checkpoints, want %d", got, rounds)
	}
	total := reg.Counter("logr_checkpoint_bytes_total", "").Value()
	stateBytes := uint64(len(d.Mem().enc.AppendState(nil)))
	// the last head is the largest: the store only grew
	_, state, _ := d.Mem().checkpointState(d.Mem().enc.Mark())
	headBytes := uint64(len(encodeHead(0, admission{}, state)))
	if bound := 2 * (stateBytes + rounds*headBytes); total > bound {
		t.Fatalf("checkpoints wrote %d bytes in total; the state is %d bytes, %d heads of ≤ %d bytes: bound %d",
			total, stateBytes, rounds, headBytes, bound)
	}
	if total < stateBytes {
		t.Fatalf("checkpoints wrote %d bytes, less than the %d-byte state they must hold", total, stateBytes)
	}
}

// TestCheckpointRearmCrash: re-arm writes the whole admission state
// into the next log generation before it points a head at it, so a crash
// between the two leaves the old head with the old generation intact — the
// store reopens from those — and the stranded new generation is swept.
func TestCheckpointRearmCrash(t *testing.T) {
	ffs := faultfs.New()
	opts, dopts := checkpointFaultOptions(ffs)
	d, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatal(err)
	}
	a := streamEntries(40, 0)
	if err := d.Append(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// a full disk on the next WAL write degrades the store; the probe's
	// re-arm then dies on the rename of its new head
	ffs.AddRule(faultfs.Rule{Kind: "write", Path: walFileName, Err: faultfs.ENOSPC})
	ffs.AddRule(faultfs.Rule{Kind: "rename", Path: ckptFileName + ".tmp", Crash: true})
	if err := d.Append(streamEntries(20, 50)); err == nil {
		t.Fatal("Append through a full disk reported success")
	}
	for deadline := time.Now().Add(15 * time.Second); !ffs.Crashed(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the re-arm never reached its head rename")
		}
	}
	d.Close()

	img := ffs.CrashImage(false)
	if _, err := img.Stat(filepath.Join(matrixDir, admFileName(1))); err != nil {
		t.Fatalf("the crashed re-arm left no second generation to sweep: %v", err)
	}
	opts, dopts = checkpointFaultOptions(img)
	re, err := Open(matrixDir, opts, dopts)
	if err != nil {
		t.Fatalf("reopen after a crashed re-arm: %v", err)
	}
	defer re.Close()
	ref := New(opts)
	ref.Append(a)
	assertStoresEquivalent(t, "crashed re-arm", re.Mem(), ref)
	if _, err := img.Stat(filepath.Join(matrixDir, admFileName(1))); err == nil {
		t.Fatal("the stranded admission-log generation survived the reopen")
	}
	if _, err := img.Stat(filepath.Join(matrixDir, admFileName(0))); err != nil {
		t.Fatalf("the live admission-log generation is gone: %v", err)
	}
}
