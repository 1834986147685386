package store

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"logr/internal/core"
	"logr/internal/obs"
	"logr/internal/vfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// Durable is the disk-backed segmented store: a Store whose every mutating
// operation is written to a write-ahead log before it is applied, and whose
// sealed segments are exported as self-contained artifacts. Open restores
// the latest checkpoint (if any) and replays the WAL tail after it into a
// fresh in-memory store — recovery is equivalent to a store that never
// crashed, up to the last durable record — and re-installs the seal-time
// summary caches from the segment artifacts.
//
// The WAL is the system of record and holds the full raw entry stream;
// this is what makes recovery exact (the shared codebook, the raw-SQL
// dedup state and the pipeline statistics are all deterministic functions
// of the entry sequence) and it is also what the exact-count query path
// fundamentally needs. Checkpoints bound its growth: once a checkpoint
// captures the full in-memory state at a WAL offset, the covered prefix is
// rotated away and recovery replays only the tail. Segment artifacts are
// caches and shippable exports: losing one costs a lazy re-clustering,
// never data.
//
// # Files
//
//	LOCK                single-writer guard
//	wal.log             the WAL tail since the latest checkpoint
//	checkpoint          checkpoint head: WAL offset, the admission log's
//	                    valid length and CRC, the mutable state; replaced
//	                    atomically by every checkpoint
//	checkpoint.adm.N    admission log: the encoder's append-only state,
//	                    extended (never rewritten) by every checkpoint
//	segments/           one artifact per sealed segment
//
// A checkpoint writes in the order admission log, head, WAL rotation, each
// step durable before the next starts, and every prefix of that order is
// a recoverable directory: an extended log under the old head is the old
// checkpoint with leftovers the head does not vouch for; a new head beside
// the unrotated WAL skips the records it covers. checkpoint.go has the
// format and the argument in full.
//
// # Ingest pipeline
//
// Ingest is split into three decoupled stages so an acknowledgement never
// waits on the encoder or on artifact clustering:
//
//  1. Commit: Append/Seal/DropBefore/Compact serialize on one sequencing
//     lock just long enough to hand their records to the WAL's buffered
//     group-commit writer and enqueue matching apply jobs — so the WAL
//     record order is, by construction, the apply order, and recovery
//     replays exactly the sequence the live store executed. Under
//     wal.SyncAlways the caller then waits (outside the lock, sharing
//     fsyncs with concurrent callers) until its records are on stable
//     storage before acknowledging.
//  2. Apply: a single ordered applier drains the bounded apply queue into
//     the in-memory store (parse/regularize/codebook encode, automatic
//     seals and compactions). The queue bound makes backpressure explicit:
//     when the applier falls behind, commits block enqueueing. Reads that
//     need append-then-read visibility call Barrier, which waits until the
//     applier has caught up to "applied ≥ acknowledged WAL offset".
//  3. Persist: a background worker rebuilds segment artifacts (including
//     seal-time summary clustering, under its own parallelism budget)
//     whenever the segment set changes, and takes a checkpoint whenever
//     the WAL has grown past DurableOptions.CheckpointBytes since the last
//     one — a stall of the commit stage whose cost follows what was
//     admitted since the last checkpoint, not the store's age. A seal
//     therefore never stalls ingest acknowledgements; Close
//     drains the worker so artifacts are current before the directory lock
//     is released.
//
// # Failure handling
//
// IO failures are classified (vfs.Fatal): transient errors get bounded
// retries with backoff; fatal ones (disk full, read-only filesystem) and
// exhausted retries put the store into degraded read-only mode. Degraded,
// the store keeps serving every read from applied in-memory state while
// mutations fail fast with ErrDegraded, and a background probe watches for
// the disk to heal. When it does, the store re-arms itself: it writes a
// checkpoint of the (authoritative) in-memory state, starts a fresh WAL
// tail at the acknowledged offset, and resumes accepting writes. Entries
// that were acknowledged under a deferred-sync policy and lost by a crash
// during the outage are beyond recall — the at-least-once contract is
// unchanged from a plain crash — but everything applied in memory
// survives the degrade/re-arm round trip exactly.
//
// All methods are safe for concurrent use.
type Durable struct {
	// seqMu is the commit-stage sequencing lock: it couples "record
	// accepted by the WAL" with "job enqueued for apply" so the two orders
	// can never diverge. It is held only for buffer framing and a channel
	// send — never for disk I/O or encoding — except by Checkpoint and
	// re-arm, where stalling the commit stage is the point.
	seqMu  sync.Mutex
	closed bool // guarded by seqMu

	mem   *Store
	w     atomic.Pointer[wal.Log] // swapped by re-arm; load once per operation
	dir   string
	opts  Options
	dopts DurableOptions
	fs    vfs.FS
	lock  io.Closer // the data directory's single-writer lock

	applyQ      chan applyJob
	applierDone chan struct{}
	persistNote chan struct{}      // coalesced "segment set changed" signal
	persistSync chan chan struct{} // WaitPersisted rendezvous
	persistDone chan struct{}
	stop        chan struct{} // closed by Close; ends the degraded-mode probe
	probeWg     sync.WaitGroup

	acked   atomic.Int64 // WAL offset of the last acknowledged record
	applied atomic.Int64 // WAL offset up to which the applier has caught up
	queued  atomic.Int64 // entries sitting in applyQ, pending apply
	ckptOff atomic.Int64 // WAL offset covered by the latest checkpoint
	adm     admission    // admission-log prefix the latest checkpoint rests on; guarded by seqMu

	applyMu   sync.Mutex // barrier condition variable
	applyCond *sync.Cond

	m *durableMetrics // never nil; zero-value set records nothing

	degraded     atomic.Bool
	errMu        sync.Mutex
	degradeCause error // first fault that degraded the store; nil once re-armed
	sticky       error // first asynchronous failure (apply WAL poison, artifact write)
	stopping     bool  // guarded by errMu; Close sets it before waiting out the probe
}

// applyJob is one WAL record en route to the in-memory store. lsn is the
// WAL offset the applier may publish after applying it (0 for all but the
// last window of a batch — barrier visibility is batch-granular). reply,
// when non-nil, receives the operation's result (control ops only).
type applyJob struct {
	op    walOp
	lsn   int64
	reply chan applyResult
}

type applyResult struct {
	meta SegmentMeta
	ok   bool
	n    int
}

// DurableOptions configure persistence; Options (the in-memory knobs)
// travel alongside in Open.
type DurableOptions struct {
	// Sync is the WAL fsync policy (default wal.SyncInterval: group commit
	// with a bounded staleness window).
	Sync wal.SyncPolicy
	// SyncInterval is the SyncInterval staleness bound (0 = 100ms).
	SyncInterval time.Duration
	// ApplyQueue bounds the apply queue in ingest windows (≈8k entries
	// each); when the applier falls this far behind, commits block and
	// backpressure reaches the caller (0 = 64 windows).
	ApplyQueue int
	// SealSummary are the compression options used to build the summary
	// written into each seal's segment artifact (and cached for range
	// queries). The zero value (K == 0 and TargetError == 0) selects the
	// default of K=8, Seed=1. Queries with different options simply
	// re-cluster lazily; the artifact summary is the export default.
	SealSummary core.CompressOptions
	// DisableSealSummaries skips the summary build at seal: artifacts then
	// carry only the sub-log, and summaries are built lazily on first use.
	// The right setting when recovery warmth matters less than idle CPU.
	DisableSealSummaries bool
	// CheckpointBytes is how far the WAL may grow past the last checkpoint
	// before the persist worker takes a new one (checkpoint the state,
	// rotate the covered WAL prefix away). 0 selects the 1 MiB default; a
	// negative value disables automatic checkpoints (Checkpoint still
	// works on demand).
	CheckpointBytes int64
	// FS is the filesystem everything durable runs on. Nil selects the
	// real one (vfs.OS); tests substitute a fault-injecting filesystem.
	FS vfs.FS
	// Obs receives the store's and its WAL's telemetry (queue/lag gauges,
	// barrier waits, seal and checkpoint costs, retry and degrade counts,
	// flush/fsync series). Nil disables instrumentation.
	Obs *obs.Registry
}

func (o DurableOptions) sealSummary() (core.CompressOptions, bool) {
	if o.DisableSealSummaries {
		return core.CompressOptions{}, false
	}
	opts := o.SealSummary
	if opts.K == 0 && opts.TargetError == 0 {
		// mirror the public façade's defaults so seal-time caches are hit
		// by default-option queries
		opts = core.CompressOptions{K: 8, Seed: 1}
	}
	return opts, true
}

func (o DurableOptions) applyQueue() int {
	if o.ApplyQueue > 0 {
		return o.ApplyQueue
	}
	return 64
}

func (o DurableOptions) fsys() vfs.FS {
	if o.FS != nil {
		return o.FS
	}
	return vfs.OS
}

// checkpointEvery returns the auto-checkpoint threshold in WAL bytes,
// 0 when automatic checkpoints are disabled.
func (o DurableOptions) checkpointEvery() int64 {
	if o.CheckpointBytes < 0 {
		return 0
	}
	if o.CheckpointBytes == 0 {
		return 1 << 20
	}
	return o.CheckpointBytes
}

// ErrClosed reports an operation on a closed durable store.
var ErrClosed = errors.New("store: durable store is closed")

// ErrDegraded reports a mutation on a store in degraded read-only mode:
// a disk fault exhausted its retries (or was immediately fatal, like a
// full disk), reads still serve from memory, and a background probe
// re-enables writes when the disk recovers. Errors returned then wrap
// ErrDegraded and the original fault.
var ErrDegraded = errors.New("store: durable store is in degraded read-only mode")

const (
	walFileName  = "wal.log"
	lockFileName = "LOCK"
)

// ingestWindow bounds one WAL record (and one apply job) so a giant batch
// cannot demand a giant replay allocation.
const ingestWindow = 8192

// ioRetries bounds the bounded-backoff retry loops on the asynchronous
// persistence paths (artifact builds, automatic checkpoints) before the
// store degrades.
const ioRetries = 3

// recordBufPool recycles the ~150 KiB encode buffers of entry-batch WAL
// records: the WAL copies payloads during AppendBatch, so the buffer is
// reusable the moment the call returns.
var recordBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

// appendScratch carries the per-call framing state of Durable.Append —
// the window payloads, their pooled buffers, and the apply jobs — so the
// steady-state ingest path reuses the three slice headers across calls
// instead of allocating them per batch.
type appendScratch struct {
	payloads [][]byte
	bufs     []*[]byte
	jobs     []applyJob
}

var appendScratchPool = sync.Pool{New: func() any { return new(appendScratch) }}

// release returns the record buffers to their pool and recycles the
// scratch with its capacity intact. The payload and job slots are cleared
// so recycled scratches never pin entry slices or encode buffers.
//
//logr:noalloc
func (sc *appendScratch) release() {
	for i, bp := range sc.bufs {
		recordBufPool.Put(bp)
		sc.bufs[i] = nil
		sc.payloads[i] = nil
		sc.jobs[i] = applyJob{}
	}
	sc.payloads = sc.payloads[:0]
	sc.bufs = sc.bufs[:0]
	sc.jobs = sc.jobs[:0]
	appendScratchPool.Put(sc)
}

// Open opens (creating if needed) a durable store rooted at dir. Recovery
// restores the checkpoint, then replays the WAL records after its covered
// offset with the same automatic seal/compact triggers live — the replay
// executes literally the same call sequence the pre-crash store executed,
// so every truncation point recovers to the state a never-crashed store
// fed the same durable prefix would hold, automatic boundaries included.
// A torn tail from a crash is truncated away. Exact pre-crash equivalence
// therefore assumes reopening with the same Options; opening with, say, a
// different SealThreshold still yields a valid store, just with segment
// boundaries re-cut under the new options.
func Open(dir string, opts Options, dopts DurableOptions) (*Durable, error) {
	fsys := dopts.fsys()
	if err := fsys.MkdirAll(filepath.Join(dir, segDirName), 0o755); err != nil {
		return nil, err
	}
	// single-writer guard: two processes appending to one WAL would
	// interleave records and recovery would silently truncate at the first
	// torn one
	lock, err := fsys.Lock(filepath.Join(dir, lockFileName))
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*Durable, error) {
		lock.Close()
		return nil, err
	}
	// startup hygiene: clear temp files stranded by a crash between a
	// temp-file write and its rename (segment artifacts, checkpoints, WAL
	// rotations all land via rename)
	vfs.RemoveTempFiles(fsys, dir)
	vfs.RemoveTempFiles(fsys, filepath.Join(dir, segDirName))

	mem, ckptOff, adm, err := loadCheckpoint(fsys, dir, opts)
	if err != nil {
		return fail(err)
	}
	removeStaleAdmissionLogs(fsys, dir, adm.gen)
	if mem == nil {
		mem = New(opts)
	}
	walPath := filepath.Join(dir, walFileName)
	replayErr := func(err error) error {
		return fmt.Errorf("store: replaying %s: %w", walPath, err)
	}
	dm := newDurableMetrics(dopts.Obs)
	walOpts := wal.Options{Sync: dopts.Sync, Interval: dopts.SyncInterval, Metrics: dm.wal}
	w, err := wal.Open(fsys, walPath, walOpts, func(payload []byte, end int64) error {
		if end <= ckptOff {
			// covered by the checkpoint; replay only the tail
			return nil
		}
		op, err := decodeOp(payload)
		if err != nil {
			return replayErr(err)
		}
		if err := applyOp(mem, op); err != nil {
			return replayErr(err)
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if w.Base() > ckptOff {
		// the log starts after the checkpoint's coverage: records between
		// them are unaccounted for. Checkpoint always lands before the
		// rotation that prunes the WAL, so this means a mismatched or
		// restored-from-elsewhere file pair.
		_ = w.Close() // surfacing the mismatch, not the close
		return fail(fmt.Errorf("store: WAL %s starts at offset %d past checkpoint offset %d",
			walPath, w.Base(), ckptOff))
	}
	if w.Size() < ckptOff {
		// the WAL ends before the checkpoint's coverage — a crash under a
		// deferred-sync policy lost a tail the checkpoint had already
		// captured, or the log was deleted. The checkpoint is authoritative;
		// start a fresh tail at its offset.
		_ = w.Close()
		if w, err = wal.Create(fsys, walPath, ckptOff, walOpts); err != nil {
			return fail(err)
		}
	}
	d := &Durable{
		mem: mem, dir: dir, opts: opts, dopts: dopts, fs: fsys, lock: lock, m: dm, adm: adm,
		applyQ:      make(chan applyJob, dopts.applyQueue()),
		applierDone: make(chan struct{}),
		persistNote: make(chan struct{}, 1),
		persistSync: make(chan chan struct{}),
		persistDone: make(chan struct{}),
		stop:        make(chan struct{}),
	}
	d.w.Store(w)
	d.applyCond = sync.NewCond(&d.applyMu)
	d.ckptOff.Store(ckptOff)
	d.acked.Store(w.Size())
	d.applied.Store(w.Size())
	d.loadArtifacts()
	if dopts.Obs != nil {
		d.registerGauges(dopts.Obs)
	}
	go d.applier()
	go d.persister()
	return d, nil
}

// Mem returns the in-memory store behind the durable layer. Reads see the
// applied state and never touch the WAL; call Barrier first for
// append-then-read visibility of acknowledged batches.
func (d *Durable) Mem() *Store { return d.mem }

// Dir returns the store's data directory.
func (d *Durable) Dir() string { return d.dir }

// segDir returns the segment-artifact directory.
func (d *Durable) segDir() string { return filepath.Join(d.dir, segDirName) }

// Append logs a batch of entries (in bounded windows) and enqueues it for
// the ordered applier; it acknowledges once every window is accepted by the
// WAL — and, under wal.SyncAlways, on stable storage — without waiting for
// the encoder. The entry slice must not be mutated by the caller after
// Append returns: the applier still reads it.
//
//logr:noalloc
func (d *Durable) Append(entries []workload.LogEntry) error {
	if len(entries) == 0 {
		return nil
	}
	// frame every window outside the sequencing lock; record buffers and
	// the scratch recycle because the WAL copies payloads during
	// AppendBatch and the applier gets its own job values
	sc := appendScratchPool.Get().(*appendScratch)
	queued := int64(0)
	for rest := entries; len(rest) > 0; {
		n := min(len(rest), ingestWindow)
		bp := recordBufPool.Get().(*[]byte)
		*bp = encodeEntriesOpInto(*bp, rest[:n])
		sc.bufs = append(sc.bufs, bp)
		sc.payloads = append(sc.payloads, *bp)
		sc.jobs = append(sc.jobs, applyJob{op: walOp{kind: opEntries, entries: rest[:n]}})
		queued += int64(n)
		rest = rest[n:]
	}
	d.seqMu.Lock()
	if d.closed {
		d.seqMu.Unlock()
		sc.release()
		return ErrClosed
	}
	if d.degraded.Load() {
		d.seqMu.Unlock()
		sc.release()
		return d.degradedErr()
	}
	w := d.w.Load()
	end, err := w.AppendBatch(sc.payloads)
	if err != nil {
		d.seqMu.Unlock()
		sc.release()
		d.maybeDegradeWal(w)
		return err
	}
	d.acked.Store(end)
	d.queued.Add(queued)
	sc.jobs[len(sc.jobs)-1].lsn = end
	for _, j := range sc.jobs {
		d.applyQ <- j // blocks when the applier is behind: backpressure
	}
	d.seqMu.Unlock()
	sc.release()
	if d.dopts.Sync == wal.SyncAlways {
		if err := w.Commit(end); err != nil {
			d.maybeDegradeWal(w)
			return err
		}
	}
	return nil
}

// control logs one control record and routes it through the apply queue,
// so it is totally ordered with appends, then waits for the applier's
// reply — a control op is inherently a barrier.
func (d *Durable) control(op walOp, payload []byte) (applyResult, error) {
	reply := make(chan applyResult, 1)
	d.seqMu.Lock()
	if d.closed {
		d.seqMu.Unlock()
		return applyResult{}, ErrClosed
	}
	if d.degraded.Load() {
		d.seqMu.Unlock()
		return applyResult{}, d.degradedErr()
	}
	w := d.w.Load()
	end, err := w.AppendBatch([][]byte{payload})
	if err != nil {
		d.seqMu.Unlock()
		d.maybeDegradeWal(w)
		return applyResult{}, err
	}
	d.acked.Store(end)
	d.applyQ <- applyJob{op: op, lsn: end, reply: reply}
	d.seqMu.Unlock()
	if d.dopts.Sync == wal.SyncAlways {
		if err := w.Commit(end); err != nil {
			<-reply // the op still applied in order; report the durability failure
			d.maybeDegradeWal(w)
			return applyResult{}, err
		}
	}
	return <-reply, nil
}

// Seal freezes the active buffer into a segment and returns its
// descriptor; ok is false when the buffer is empty. The segment's artifact
// (summary per DurableOptions.SealSummary plus the sub-log) is built by
// the background persist worker — WaitPersisted blocks until it lands.
func (d *Durable) Seal() (SegmentMeta, bool, error) {
	// an empty active buffer seals to nothing; checking it needs the
	// applier caught up, and holding seqMu keeps new appends out between
	// the check and the record (the applier never takes seqMu, so the
	// barrier cannot deadlock)
	d.seqMu.Lock()
	if d.closed {
		d.seqMu.Unlock()
		return SegmentMeta{}, false, ErrClosed
	}
	if d.degraded.Load() {
		d.seqMu.Unlock()
		return SegmentMeta{}, false, d.degradedErr()
	}
	d.Barrier()
	if d.mem.ActiveQueries() == 0 {
		d.seqMu.Unlock()
		return SegmentMeta{}, false, nil
	}
	reply := make(chan applyResult, 1)
	w := d.w.Load()
	end, err := w.AppendBatch([][]byte{encodeSealOp()})
	if err != nil {
		d.seqMu.Unlock()
		d.maybeDegradeWal(w)
		return SegmentMeta{}, false, err
	}
	d.acked.Store(end)
	d.applyQ <- applyJob{op: walOp{kind: opSeal}, lsn: end, reply: reply}
	d.seqMu.Unlock()
	if d.dopts.Sync == wal.SyncAlways {
		if err := w.Commit(end); err != nil {
			<-reply
			d.maybeDegradeWal(w)
			return SegmentMeta{}, false, err
		}
	}
	res := <-reply
	if !res.ok {
		return SegmentMeta{}, false, nil
	}
	return res.meta, true, nil
}

// DropBefore logs and applies retention: segments entirely before seal id
// are retired and their artifact files removed. The WAL keeps their raw
// entries until the next checkpoint — the codebook, dedup state and
// statistics they contributed are still live state — so reopening replays
// them and re-drops the segments.
func (d *Durable) DropBefore(id int) (int, error) {
	res, err := d.control(walOp{kind: opDrop, arg: id}, encodeDropOp(id))
	return res.n, err
}

// Compact logs and applies a compaction pass, then lets the background
// persist worker refresh the artifact directory (merged runs get a
// combined sub-log artifact; their old files are removed).
func (d *Durable) Compact(minQueries int) (int, error) {
	res, err := d.control(walOp{kind: opCompact, arg: minQueries}, encodeCompactOp(minQueries))
	return res.n, err
}

// Checkpoint captures the full in-memory state — the head file rewritten,
// the admission log extended by what the encoder admitted since the last
// checkpoint — and rotates the covered WAL prefix away, bounding recovery
// replay (and the WAL itself) to the records since this call. It stalls
// the commit stage for the duration; the persist worker calls it
// automatically every DurableOptions.CheckpointBytes of WAL growth.
func (d *Durable) Checkpoint() error {
	d.seqMu.Lock()
	start := time.Now()
	err := d.checkpointLocked()
	d.seqMu.Unlock()
	if err == nil {
		d.m.checkpointSeconds.RecordSince(start)
	}
	return err
}

// checkpointLocked is Checkpoint's body. IO under seqMu is deliberate
// here: a checkpoint is a stall point by design, and the WAL rotation must
// see no concurrent appends.
//
//logr:holds(d.seqMu)
func (d *Durable) checkpointLocked() error {
	if d.closed {
		return ErrClosed
	}
	if d.degraded.Load() {
		return d.degradedErr()
	}
	cut, err := d.writeCheckpoint(false)
	if err != nil {
		return err
	}
	w := d.w.Load()
	//logr:allow(lockdiscipline) WAL rotation must exclude concurrent appends; see checkpointLocked doc
	if err := w.Rotate(cut); err != nil {
		d.maybeDegradeWal(w)
		return err
	}
	return nil
}

// writeCheckpoint makes the in-memory state durable and returns the WAL
// offset it covers. The sequencing lock keeps every mutator out, and the
// barrier drains the applier, so the in-memory state is exactly the state
// at the acknowledged WAL offset — the one pair a checkpoint must capture
// atomically. The admission-log frame is fsynced before the head that
// vouches for it is renamed in (see checkpoint.go for the crash-ordering
// argument); d.adm moves only once the head has landed, so a failed
// attempt's frame is cut by the next one. fresh distrusts the admission
// log on disk and rewrites the whole admission state into the next
// generation, which is how re-arm rebuilds the durable image.
//
//logr:holds(d.seqMu)
func (d *Durable) writeCheckpoint(fresh bool) (int64, error) {
	d.Barrier()
	cut := d.acked.Load()
	adm := d.adm
	if fresh {
		adm = admission{gen: d.adm.gen + 1}
	}
	frame, state, mark := d.mem.checkpointState(adm.mark)
	if len(frame) > 0 {
		if err := appendAdmissions(d.fs, filepath.Join(d.dir, admFileName(adm.gen)), adm.len, frame); err != nil {
			return 0, err
		}
		adm.len += int64(len(frame))
		adm.crc = crc32.Update(adm.crc, crc32.IEEETable, frame)
	}
	adm.mark = mark
	head := encodeHead(cut, adm, state)
	//logr:allow(lockdiscipline) checkpoint and re-arm are deliberate commit-stage stalls
	if err := vfs.WriteFileAtomic(d.fs, filepath.Join(d.dir, ckptFileName), head, 0o644); err != nil {
		return 0, err
	}
	// the checkpoint is durable and authoritative from here: even if what
	// the caller does next fails (or we crash), recovery restores it and
	// skips the covered records still sitting in the WAL
	if fresh {
		//logr:allow(lockdiscipline) checkpoint and re-arm are deliberate commit-stage stalls
		_ = d.fs.Remove(filepath.Join(d.dir, admFileName(d.adm.gen))) // superseded; Open sweeps it if this fails
	}
	d.adm = adm
	d.ckptOff.Store(cut)
	d.m.checkpoints.Inc()
	d.m.checkpointBytes.Add(int64(len(head) + len(frame)))
	return cut, nil
}

// Barrier blocks until the applier has caught up with every batch
// acknowledged before the call: on return, reads through Mem see them.
// The fast path — applier already caught up — is two atomic loads.
func (d *Durable) Barrier() {
	target := d.acked.Load()
	if d.applied.Load() >= target {
		return
	}
	start := time.Now() // slow path only: the fast path stays two atomic loads
	d.applyMu.Lock()
	for d.applied.Load() < target {
		d.applyCond.Wait()
	}
	d.applyMu.Unlock()
	d.m.barrierWait.RecordSince(start)
}

// IngestLag is a snapshot of the ingest pipeline's backlog: how far the
// asynchronous applier trails acknowledged WAL records. The zero value
// (an in-memory workload, or a drained pipeline) means no lag. It is the
// "ingest" object of logrd's GET /stats body.
type IngestLag struct {
	// QueuedBatches and QueueCap are the apply queue's depth and bound, in
	// ingest windows (≈8k entries each).
	QueuedBatches int `json:"queued_batches"`
	QueueCap      int `json:"queue_cap"`
	// QueuedEntries counts log entries acknowledged but not yet applied.
	QueuedEntries int64 `json:"queued_entries"`
	// AckedOffset and AppliedOffset are WAL byte offsets: the last
	// acknowledged record and the applier's progress through them.
	AckedOffset   int64 `json:"acked_wal_offset"`
	AppliedOffset int64 `json:"applied_wal_offset"`
	// LagBytes = AckedOffset − AppliedOffset: acknowledged WAL bytes the
	// applier has not made visible to reads yet.
	LagBytes int64 `json:"applied_lag_bytes"`
}

// Lag reports the ingest pipeline's current backlog.
func (d *Durable) Lag() IngestLag {
	// applied before acked: both only grow and applied never passes acked,
	// so this order keeps LagBytes non-negative
	applied := d.applied.Load()
	acked := d.acked.Load()
	return IngestLag{
		QueuedBatches: len(d.applyQ),
		QueueCap:      cap(d.applyQ),
		QueuedEntries: d.queued.Load(),
		AckedOffset:   acked,
		AppliedOffset: applied,
		LagBytes:      acked - applied,
	}
}

// DurabilityInfo is a snapshot of the store's durability state. The zero
// value describes an in-memory workload. It is the "durability" object of
// logrd's GET /stats body.
type DurabilityInfo struct {
	// WalBytes is the WAL tail's logical length: the replay cost of the
	// next recovery. Checkpoints reset it.
	WalBytes int64 `json:"wal_bytes"`
	// CheckpointOffset is the logical WAL offset the newest checkpoint
	// covers; everything before it is restored from the checkpoint, not
	// replayed.
	CheckpointOffset int64 `json:"checkpoint_offset"`
	// Degraded reports degraded read-only mode: reads serve, mutations are
	// refused until the store's probe re-arms the disk.
	Degraded bool `json:"degraded,omitempty"`
	// Err is the store's current health (see Durable.Err), nil if healthy.
	Err error `json:"-"`
}

// Durability reports the store's durability state.
func (d *Durable) Durability() DurabilityInfo {
	d.checkWalHealth()
	w := d.w.Load()
	return DurabilityInfo{
		WalBytes:         w.Size() - w.Base(),
		CheckpointOffset: d.ckptOff.Load(),
		Degraded:         d.degraded.Load(),
		Err:              d.Err(),
	}
}

// applier is the single ordered apply stage: it drains WAL-committed jobs
// into the in-memory store, publishes apply progress for Barrier, answers
// control-op replies, and nudges the persist worker when the segment set
// changes or the WAL has outgrown its checkpoint threshold.
func (d *Durable) applier() {
	defer close(d.applierDone)
	for job := range d.applyQ {
		before := d.mem.NextID()
		var res applyResult
		switch job.op.kind {
		case opEntries:
			d.mem.Append(job.op.entries)
			d.queued.Add(-int64(len(job.op.entries)))
			d.m.appliedEntries.Add(int64(len(job.op.entries)))
		case opSeal:
			res.meta, res.ok = d.mem.Seal()
		case opDrop:
			res.n = d.mem.DropBefore(job.op.arg)
		case opCompact:
			res.n = d.mem.Compact(job.op.arg)
		}
		if job.lsn > 0 {
			d.applyMu.Lock()
			d.applied.Store(job.lsn)
			d.applyCond.Broadcast()
			d.applyMu.Unlock()
		}
		if job.reply != nil {
			job.reply <- res
		}
		if job.op.kind != opEntries || d.mem.NextID() != before || d.wantCheckpoint(job.lsn) {
			select {
			case d.persistNote <- struct{}{}:
			default: // a reconcile is already pending; it will see this change
			}
		}
	}
}

// wantCheckpoint reports whether the WAL has grown past the automatic
// checkpoint threshold since the last checkpoint.
func (d *Durable) wantCheckpoint(lsn int64) bool {
	every := d.dopts.checkpointEvery()
	return every > 0 && lsn > 0 && lsn-d.ckptOff.Load() >= every
}

// persister is the background persist worker: every nudge reconciles the
// artifact directory against the live segments (clustering seal summaries)
// and checkpoints when the WAL has outgrown its threshold. Failures get
// bounded retries; exhaustion or a fatal fault degrades the store — the
// WAL already holds the truth, so a failed artifact build costs recovery
// warmth, never data.
func (d *Durable) persister() {
	defer close(d.persistDone)
	for {
		select {
		case _, ok := <-d.persistNote:
			if !ok {
				// shutdown: one final reconcile so Close leaves artifacts
				// current before the directory lock is released (no degrade
				// on this path — the store is closing, note the error)
				if err := d.persistSegments(); err != nil {
					d.note(err)
				}
				return
			}
			d.reconcile()
		case ready := <-d.persistSync:
			// drain a pending nudge first so the wait covers it
			select {
			case <-d.persistNote:
			default:
			}
			d.reconcile()
			close(ready)
		}
	}
}

// reconcile is one persist-worker pass: artifact reconciliation with
// bounded retries, then an automatic checkpoint if the WAL has outgrown
// its threshold. Retry exhaustion or a fatal fault degrades the store.
func (d *Durable) reconcile() {
	if err := d.retryIO(d.persistSegments); err != nil {
		d.degrade(err)
		return
	}
	d.maybeCheckpoint()
}

// maybeCheckpoint runs an automatic checkpoint when due, with the same
// retry/degrade policy as artifact persistence.
func (d *Durable) maybeCheckpoint() {
	if !d.wantCheckpoint(d.acked.Load()) || d.degraded.Load() {
		return
	}
	err := d.retryIO(d.Checkpoint)
	if err == nil || errors.Is(err, ErrClosed) || errors.Is(err, ErrDegraded) {
		return
	}
	d.degrade(err)
}

// retryIO runs fn with bounded backoff retries: transient faults (a path
// failover, a momentary controller error) get ioRetries attempts, fatal
// ones (vfs.Fatal: disk full, read-only) fail immediately.
func (d *Durable) retryIO(fn func() error) error {
	var err error
	for attempt := 0; attempt < ioRetries; attempt++ {
		if err = fn(); err == nil || vfs.Fatal(err) ||
			errors.Is(err, ErrClosed) || errors.Is(err, ErrDegraded) {
			return err
		}
		d.m.ioRetries.Inc()
		time.Sleep((10 * time.Millisecond) << attempt)
	}
	return err
}

// WaitPersisted blocks until the persist worker has reconciled the
// artifact directory with the segment set as of the call. It does not
// barrier on the applier; callers that need "everything I appended is
// sealed and persisted" should Barrier (or Seal) first.
func (d *Durable) WaitPersisted() {
	ready := make(chan struct{})
	select {
	case d.persistSync <- ready:
		<-ready
	case <-d.persistDone:
		// worker already shut down: Close's final reconcile covered it
	}
}

// degrade moves the store into degraded read-only mode and starts the
// recovery probe. Idempotent; the first cause wins. It takes only errMu —
// callers may hold seqMu — and the probe spawn is ordered against Close's
// stopping flag so a late degrade cannot leak a probe past probeWg.Wait.
func (d *Durable) degrade(cause error) {
	if cause == nil {
		return
	}
	d.errMu.Lock()
	if d.degradeCause == nil {
		d.degradeCause = cause
	}
	if d.degraded.CompareAndSwap(false, true) {
		d.m.degradeEvents.Inc()
		if !d.stopping {
			d.probeWg.Add(1)
			go d.probe()
		}
	}
	d.errMu.Unlock()
}

// degradedErr renders the degraded state as an error wrapping ErrDegraded
// and the original fault.
func (d *Durable) degradedErr() error {
	d.errMu.Lock()
	cause := d.degradeCause
	d.errMu.Unlock()
	if cause == nil {
		return ErrDegraded
	}
	return fmt.Errorf("%w: %v", ErrDegraded, cause)
}

// maybeDegradeWal degrades the store when the WAL has poisoned itself (a
// failed flush or fsync taints everything after it). Per-call errors that
// leave the log healthy — an oversized payload, a commit past the end —
// stay with the caller. Skipped when w is no longer the current log: a
// straggler committing against a pre-re-arm WAL must not re-degrade the
// healthy store.
func (d *Durable) maybeDegradeWal(w *wal.Log) {
	if cause := w.FailCause(); cause != nil && d.w.Load() == w {
		d.degrade(cause)
	}
}

// checkWalHealth lazily surfaces background WAL poisoning (a deferred
// interval fsync that failed after the ack) as degraded mode.
func (d *Durable) checkWalHealth() {
	d.maybeDegradeWal(d.w.Load())
}

// probe is the degraded-mode recovery loop: it periodically checks
// whether the data directory accepts durable writes again and, when it
// does, re-arms the store. Close ends it.
func (d *Durable) probe() {
	defer d.probeWg.Done()
	backoff := 100 * time.Millisecond
	for {
		select {
		case <-d.stop:
			return
		case <-time.After(backoff):
		}
		if backoff *= 2; backoff > 5*time.Second {
			backoff = 5 * time.Second
		}
		if err := d.probeDisk(); err != nil {
			continue
		}
		if err := d.rearm(); err == nil || errors.Is(err, ErrClosed) {
			return
		}
	}
}

// probeDisk checks that the data directory accepts a durable write:
// create, write, fsync, remove a scratch file. The .tmp suffix keeps a
// crash-stranded probe file inside the startup GC's sweep.
func (d *Durable) probeDisk() error {
	path := filepath.Join(d.dir, "probe.tmp")
	f, err := d.fs.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte("ok")); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return d.fs.Remove(path)
}

// rearm rebuilds the durable image from the authoritative in-memory state
// and re-enables writes: checkpoint at the acknowledged offset — a new head
// over a fresh admission-log generation, since the fault may have hit
// either file — fresh WAL tail starting there, poisoned log discarded.
// Entries acked under a deferred-sync policy that the fault swallowed
// before they reached disk are gone from the old WAL either way — the
// checkpoint captures their applied effects, which is strictly more than a
// post-crash replay of the poisoned log could recover.
func (d *Durable) rearm() error {
	d.seqMu.Lock()
	if d.closed {
		d.seqMu.Unlock()
		return ErrClosed
	}
	cut, err := d.writeCheckpoint(true)
	if err != nil {
		d.seqMu.Unlock()
		return err
	}
	//logr:allow(lockdiscipline) re-arm must exclude the commit stage while it swaps the WAL
	nw, err := wal.Create(d.fs, filepath.Join(d.dir, walFileName),
		cut, wal.Options{Sync: d.dopts.Sync, Interval: d.dopts.SyncInterval, Metrics: d.m.wal})
	if err != nil {
		d.seqMu.Unlock()
		return err
	}
	old := d.w.Swap(nw)
	d.errMu.Lock()
	d.degradeCause = nil
	d.sticky = nil
	d.errMu.Unlock()
	d.degraded.Store(false)
	d.seqMu.Unlock()
	_ = old.Close() // the old WAL is the poisoned one; its close error is moot
	return nil
}

// note records the first asynchronous failure.
func (d *Durable) note(err error) {
	if err == nil {
		return
	}
	d.errMu.Lock()
	if d.sticky == nil {
		d.sticky = err
	}
	d.errMu.Unlock()
}

// Err reports the store's current health: the degraded-mode cause while
// degraded (cleared when the probe re-arms writes), else the first
// asynchronous failure (artifact persistence, deferred WAL fsync
// poisoning), nil if none.
func (d *Durable) Err() error {
	d.checkWalHealth()
	if d.degraded.Load() {
		return d.degradedErr()
	}
	d.errMu.Lock()
	defer d.errMu.Unlock()
	return d.sticky
}

// Degraded reports whether the store is in degraded read-only mode.
func (d *Durable) Degraded() bool {
	d.checkWalHealth()
	return d.degraded.Load()
}

// Sync forces every acknowledged record to stable storage (the fsync the
// configured policy may have deferred).
func (d *Durable) Sync() error {
	w := d.w.Load()
	if err := w.Sync(); err != nil {
		d.maybeDegradeWal(w)
		return err
	}
	return d.Err()
}

// Close drains the pipeline — applier, probe, then persist worker — syncs
// and closes the WAL, and releases the data directory's single-writer
// lock. Reads through Mem keep working; further mutations report
// ErrClosed. Close returns the first error the asynchronous stages hit,
// if any.
func (d *Durable) Close() error {
	d.seqMu.Lock()
	if d.closed {
		d.seqMu.Unlock()
		return nil
	}
	d.closed = true
	close(d.applyQ)
	d.seqMu.Unlock()
	<-d.applierDone
	d.errMu.Lock()
	d.stopping = true
	d.errMu.Unlock()
	close(d.stop)
	d.probeWg.Wait()
	close(d.persistNote)
	<-d.persistDone
	err := d.w.Load().Close()
	d.lock.Close()
	if d.degraded.Load() {
		// the close-time WAL error restates the degrade cause; the
		// structured degraded error is the better report
		err = d.degradedErr()
	}
	if err == nil {
		err = d.Err()
	}
	return err
}

// persistSegments reconciles the artifact directory with the live
// segments: every live segment lacking an artifact file gets one — with a
// freshly built seal summary (warm-chained from its predecessor's, the
// same recurrence lazy range queries follow) unless seal summaries are
// disabled — and files naming no live segment are removed. It runs on the
// persist worker (segment clustering must not stall ingest) and re-reads
// the live segment list each run: a drop/compact racing an artifact write
// at worst leaves a stale file the next reconciliation removes. Artifact
// failures never leave the store inconsistent: the WAL already holds the
// truth.
func (d *Durable) persistSegments() error {
	segs := d.mem.liveSegments()
	keep := make(map[string]bool, len(segs))
	var firstErr error
	for i, sg := range segs {
		name := segFileName(sg.meta)
		keep[name] = true
		if _, err := d.fs.Stat(filepath.Join(d.segDir(), name)); err == nil {
			continue
		}
		var sum *core.Compressed
		sumKey := ""
		if opts, enabled := d.dopts.sealSummary(); enabled {
			key := summaryKey(opts)
			var prev *core.Compressed
			if i > 0 {
				prev = segs[i-1].cached(key)
			}
			start := time.Now()
			s, err := sg.summary(opts, key, func() [][]float64 {
				return warmCentroids(prev, sg.log.Universe(), opts.K)
			})
			d.m.sealSeconds.RecordSince(start)
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if err == nil {
				sum, sumKey = s, key
			}
		}
		if err := writeSegFile(d.fs, d.segDir(), sg, sumKey, sum, d.mem.Book()); err != nil && firstErr == nil {
			firstErr = err
		} else if err == nil {
			d.m.segmentsPersisted.Inc()
		}
	}
	d.gcArtifacts(keep)
	return firstErr
}

// gcArtifacts removes artifact files naming no live segment.
func (d *Durable) gcArtifacts(keep map[string]bool) {
	ents, err := d.fs.ReadDir(d.segDir())
	if err != nil {
		return
	}
	for _, e := range ents {
		if !keep[e.Name()] {
			d.fs.Remove(filepath.Join(d.segDir(), e.Name()))
		}
	}
}

// loadArtifacts re-installs seal-time summary caches from the artifacts
// that match the replayed segments, and clears out files describing
// segments that no longer exist (stale survivors of a crash between a
// WAL-logged drop/compaction and its file cleanup).
func (d *Durable) loadArtifacts() {
	segs := d.mem.liveSegments()
	keep := make(map[string]bool, len(segs))
	for _, sg := range segs {
		keep[segFileName(sg.meta)] = true
		sumKey, asg, ok := readSegFile(d.fs, d.segDir(), sg)
		if !ok || sumKey == "" {
			continue
		}
		sum, err := rebuildSummary(sg.log, asg)
		if err != nil {
			continue
		}
		sg.mu.Lock()
		sg.sum, sg.sumKey = sum, sumKey
		sg.mu.Unlock()
	}
	d.gcArtifacts(keep)
}

// liveSegments snapshots the live segment slice.
func (s *Store) liveSegments() []*Segment {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Segment(nil), s.segs...)
}
