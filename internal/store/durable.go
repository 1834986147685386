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

	"logr/internal/obs"
	"logr/internal/vfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// Durable is the disk-backed segmented store: a Store whose every mutating
// operation is written to a write-ahead log before it is applied. Open
// restores the latest checkpoint (if any) and replays the WAL tail after it
// into a fresh in-memory store — recovery is equivalent to a store that
// never crashed, up to the last durable record.
//
// The WAL is the system of record and holds the full raw entry stream;
// this is what makes recovery exact (the shared codebook, the raw-SQL
// dedup state and the pipeline statistics are all deterministic functions
// of the entry sequence) and it is also what the exact-count query path
// fundamentally needs. Checkpoints bound its growth: once a checkpoint
// captures the full in-memory state at a WAL offset, the covered prefix is
// rotated away and recovery replays only the tail.
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
//
// Older builds also kept a segments/ directory of per-segment summary
// artifacts; Open deletes it.
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
// waits on the encoder or on a checkpoint:
//
//  1. Commit: Append, Seal, DropBefore and Compact all go through one
//     commit function. It takes one sequencing lock just long enough to
//     refuse a closed or degraded store, check the mutation's own
//     precondition, hand its records to the WAL's buffered group-commit
//     writer and enqueue matching apply jobs — so the WAL record order is,
//     by construction, the apply order, and recovery replays exactly the
//     sequence the live store executed. Under wal.SyncAlways the caller
//     then waits (outside the lock, sharing fsyncs with concurrent
//     callers) until its records are on stable storage before
//     acknowledging.
//  2. Apply: a single ordered applier drains the bounded apply queue into
//     the in-memory store (parse/regularize/codebook encode, automatic
//     seals and compactions). The queue bound makes backpressure explicit:
//     when the applier falls behind, commits block enqueueing. Reads that
//     need append-then-read visibility call Barrier, which waits until the
//     applier has caught up to "applied ≥ acknowledged WAL offset".
//  3. Persist: the store's only background disk worker. Healthy, it takes
//     a checkpoint whenever the WAL has grown past
//     DurableOptions.CheckpointBytes since the last one — a stall of the
//     commit stage whose cost follows what was admitted since the last
//     checkpoint, not the store's age. Degraded, it probes the disk and
//     re-arms the store (see below). Close stops the worker before the
//     WAL is closed and the directory lock is released.
//
// # Failure handling
//
// IO failures are classified (vfs.Fatal): transient errors get bounded
// retries with backoff; fatal ones (disk full, read-only filesystem) and
// exhausted retries put the store into degraded read-only mode: the
// failing path records the cause, sets the flag and wakes the persist
// worker. Degraded, the store keeps serving every read from applied
// in-memory state while mutations fail fast with ErrDegraded, and the
// persist worker probes the disk on a backoff (100 ms doubling to 5 s).
// When the disk accepts a durable write again, the worker re-arms the
// store: it writes a checkpoint of the (authoritative) in-memory state,
// starts a fresh WAL tail at the acknowledged offset, and resumes
// accepting writes. Entries that were acknowledged under a deferred-sync
// policy and lost by a crash during the outage are beyond recall — the
// at-least-once contract is unchanged from a plain crash — but everything
// applied in memory survives the degrade/re-arm round trip exactly.
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
	persistNote chan struct{}      // coalesced wake-up: a checkpoint may be due, or the store degraded; never closed
	persistSync chan chan struct{} // WaitPersisted rendezvous
	persistStop chan struct{}      // closed by Close; ends the persist worker
	persistDone chan struct{}

	acked    atomic.Int64 // WAL offset of the last acknowledged record
	applied  atomic.Int64 // WAL offset up to which the applier has caught up
	queued   atomic.Int64 // entries sitting in applyQ, pending apply
	ckptOff  atomic.Int64 // WAL offset covered by the latest checkpoint
	adm      admission    // admission-log prefix the latest checkpoint rests on; guarded by seqMu
	ingested int          // queries acknowledged over the store's life, for the ingest cap; guarded by seqMu

	applyMu   sync.Mutex // barrier condition variable
	applyCond *sync.Cond

	m *durableMetrics // never nil; zero-value set records nothing

	degraded     atomic.Bool
	errMu        sync.Mutex
	degradeCause error // first fault that degraded the store; nil once re-armed
}

// applyJob is one WAL record en route to the in-memory store. lsn is the
// WAL offset the applier may publish after applying it (0 for all but the
// last record of a commit — barrier visibility is commit-granular). reply,
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
// full disk), reads still serve from memory, and the persist worker
// re-enables writes when the disk recovers. Errors returned then wrap
// ErrDegraded and the original fault.
var ErrDegraded = errors.New("store: durable store is in degraded read-only mode")

const (
	walFileName  = "wal.log"
	lockFileName = "LOCK"
	// legacySegDir held per-segment summary artifacts in older builds.
	legacySegDir = "segments"
)

// ingestWindow bounds one WAL record (and one apply job) so a giant batch
// cannot demand a giant replay allocation.
const ingestWindow = 8192

// ioRetries bounds the bounded-backoff retry loop of automatic
// checkpoints before the store degrades.
const ioRetries = 3

// probeBackoff is the degraded-mode disk probe's first wait; each failed
// probe doubles it up to maxProbeBackoff.
const (
	probeBackoff    = 100 * time.Millisecond
	maxProbeBackoff = 5 * time.Second
)

// recordBufPool recycles the ~150 KiB encode buffers of entry-batch WAL
// records: the WAL copies payloads during AppendBatch, so the buffer is
// reusable the moment the call returns.
var recordBufPool = sync.Pool{
	New: func() any { b := make([]byte, 0, 64<<10); return &b },
}

// commitBatch carries one commit's records — the WAL payloads, the
// pooled buffers Append encoded them into, and the matching apply jobs —
// so the steady-state ingest path reuses the three slice headers across
// calls instead of allocating them per batch.
type commitBatch struct {
	payloads [][]byte
	bufs     []*[]byte
	jobs     []applyJob
}

var commitBatchPool = sync.Pool{New: func() any { return new(commitBatch) }}

// add stages one WAL record and its apply job.
//
//logr:noalloc
func (b *commitBatch) add(payload []byte, job applyJob) {
	b.payloads = append(b.payloads, payload)
	b.jobs = append(b.jobs, job)
}

// release returns the record buffers to their pool and recycles the
// batch with its capacity intact. The slots are cleared so recycled
// batches never pin entry slices or encode buffers.
//
//logr:noalloc
func (b *commitBatch) release() {
	for _, bp := range b.bufs {
		recordBufPool.Put(bp)
	}
	clear(b.bufs)
	clear(b.payloads)
	clear(b.jobs)
	b.bufs, b.payloads, b.jobs = b.bufs[:0], b.payloads[:0], b.jobs[:0]
	commitBatchPool.Put(b)
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
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
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
	// temp-file write and its rename (checkpoints and WAL rotations land
	// via rename), and an older build's artifact directory
	vfs.RemoveTempFiles(fsys, dir)
	removeLegacySegDir(fsys, dir)

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
		if _, err := applyOp(mem, op); err != nil {
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
		mem: mem, dir: dir, opts: opts, dopts: dopts, fs: fsys, lock: lock, m: dm, adm: adm, ingested: mem.IngestedQueries(),
		applyQ:      make(chan applyJob, dopts.applyQueue()),
		applierDone: make(chan struct{}),
		persistNote: make(chan struct{}, 1),
		persistSync: make(chan chan struct{}),
		persistStop: make(chan struct{}),
		persistDone: make(chan struct{}),
	}
	d.w.Store(w)
	d.applyCond = sync.NewCond(&d.applyMu)
	d.ckptOff.Store(ckptOff)
	d.acked.Store(w.Size())
	d.applied.Store(w.Size())
	mem.sealSeconds = dm.sealSeconds // replayed seals are not timed
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

// removeLegacySegDir deletes the segments/ directory an older build kept
// per-segment summary artifacts in. Nothing reads them: the WAL and the
// checkpoint hold every segment's sub-log. Best-effort, like the temp-file
// sweep.
func removeLegacySegDir(fsys vfs.FS, dir string) {
	legacy := filepath.Join(dir, legacySegDir)
	ents, err := fsys.ReadDir(legacy)
	if err != nil {
		return
	}
	for _, e := range ents {
		fsys.Remove(filepath.Join(legacy, e.Name()))
	}
	fsys.Remove(legacy)
}

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
	// the batch recycle because the WAL copies payloads during AppendBatch
	// and the applier gets its own job values
	b := commitBatchPool.Get().(*commitBatch)
	for rest := entries; len(rest) > 0; {
		n := min(len(rest), ingestWindow)
		bp := recordBufPool.Get().(*[]byte)
		*bp = encodeEntriesOpInto(*bp, rest[:n])
		b.bufs = append(b.bufs, bp)
		b.add(*bp, applyJob{op: walOp{kind: opEntries, entries: rest[:n]}})
		rest = rest[n:]
	}
	return d.commit(b, entries)
}

// Seal freezes the active buffer into a segment and returns its
// descriptor; ok is false when the buffer is empty, and then no WAL record
// is written. Sealing only cuts the segment's sub-log; nothing is
// clustered.
func (d *Durable) Seal() (SegmentMeta, bool, error) {
	res, err := d.control(walOp{kind: opSeal}, encodeSealOp())
	if errors.Is(err, errNothingToSeal) {
		return SegmentMeta{}, false, nil
	}
	return res.meta, res.ok, err
}

// control commits one control record, so it is totally ordered with
// appends, then waits for the applier's reply — a control op is
// inherently a barrier.
func (d *Durable) control(op walOp, payload []byte) (applyResult, error) {
	reply := make(chan applyResult, 1)
	b := commitBatchPool.Get().(*commitBatch)
	b.add(payload, applyJob{op: op, reply: reply})
	if err := d.commit(b, nil); err != nil {
		return applyResult{}, err
	}
	return <-reply, nil
}

// errNothingToSeal is commit's answer to a seal of an empty active buffer.
var errNothingToSeal = errors.New("store: nothing to seal")

// commit is the one commit path of every durable mutation. Under seqMu it
// admits the batch (see admitLocked), hands its records to the WAL,
// publishes the acknowledged offset and enqueues the apply jobs, so the
// WAL record order is the apply order. Under wal.SyncAlways it then waits,
// outside the lock, until the records are on stable storage. entries are
// the queries the batch adds, checked against the ingest cap. The batch is
// recycled before commit returns.
//
//logr:noalloc
func (d *Durable) commit(b *commitBatch, entries []workload.LogEntry) error {
	d.seqMu.Lock()
	w := d.w.Load()
	var end int64
	ingested, err := d.admitLocked(b, entries)
	if err == nil {
		if end, err = w.AppendBatch(b.payloads); err != nil {
			d.maybeDegradeWal(w)
		}
	}
	if err != nil {
		d.seqMu.Unlock()
		b.release()
		return err
	}
	d.ingested = ingested
	d.acked.Store(end)
	d.queued.Add(int64(len(entries)))
	last := &b.jobs[len(b.jobs)-1]
	last.lsn = end
	reply := last.reply
	for _, j := range b.jobs {
		d.applyQ <- j // blocks when the applier is behind: backpressure
	}
	d.seqMu.Unlock()
	b.release()
	if d.dopts.Sync != wal.SyncAlways {
		return nil
	}
	if err := w.Commit(end); err != nil {
		if reply != nil {
			<-reply // the op still applied in order; report the durability failure
		}
		d.maybeDegradeWal(w)
		return err
	}
	return nil
}

// admitLocked checks a batch before it reaches the WAL: the store's gate,
// then the batch's own precondition — its entries must fit under the
// ingest cap, and a seal needs a non-empty active buffer. It returns the
// ingest total the batch would leave.
//
//logr:holds(d.seqMu)
func (d *Durable) admitLocked(b *commitBatch, entries []workload.LogEntry) (int, error) {
	if err := d.gateLocked(); err != nil {
		return 0, err
	}
	if b.jobs[0].op.kind == opSeal {
		// checking the buffer needs the applier caught up, and holding
		// seqMu keeps new appends out between the check and the record
		// (the applier never takes seqMu, so the barrier cannot deadlock)
		d.Barrier()
		if d.mem.ActiveQueries() == 0 {
			return 0, errNothingToSeal
		}
	}
	return addQueries(d.ingested, entries)
}

// gateLocked refuses every mutation and checkpoint of a closed store
// (ErrClosed) or a degraded one (an error wrapping ErrDegraded).
//
//logr:holds(d.seqMu)
func (d *Durable) gateLocked() error {
	if d.closed {
		return ErrClosed
	}
	if d.degraded.Load() {
		return d.degradedErr()
	}
	return nil
}

// DropBefore logs and applies retention: segments entirely before seal id
// are retired. The WAL keeps their raw
// entries until the next checkpoint — the codebook, dedup state and
// statistics they contributed are still live state — so reopening replays
// them and re-drops the segments.
func (d *Durable) DropBefore(id int) (int, error) {
	res, err := d.control(walOp{kind: opDrop, arg: id}, encodeDropOp(id))
	return res.n, err
}

// Compact logs and applies a compaction pass.
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
	if err := d.gateLocked(); err != nil {
		return err
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
	// a log in an older layout cannot take a frame in the current one, so
	// it is rewritten whole into the next generation, like a re-arm's
	fresh = fresh || d.adm.legacy
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
	// refused until the persist worker re-arms the store on a healed disk.
	Degraded bool `json:"degraded,omitempty"`
	// Err is the store's current health (see Durable.Err), nil if healthy.
	Err error `json:"-"`
}

// Durability reports the store's durability state.
func (d *Durable) Durability() DurabilityInfo {
	err := d.Err()
	w := d.w.Load()
	return DurabilityInfo{
		WalBytes:         w.Size() - w.Base(),
		CheckpointOffset: d.ckptOff.Load(),
		Degraded:         err != nil,
		Err:              err,
	}
}

// applier is the single ordered apply stage: it drains WAL-committed jobs
// into the in-memory store, publishes apply progress for Barrier, answers
// control-op replies, and nudges the persist worker when the WAL has
// outgrown its checkpoint threshold.
func (d *Durable) applier() {
	defer close(d.applierDone)
	for job := range d.applyQ {
		// cannot fail: Append admitted every batch against the same cap
		res, _ := applyOp(d.mem, job.op)
		if n := int64(len(job.op.entries)); n > 0 {
			d.queued.Add(-n)
			d.m.appliedEntries.Add(n)
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
		if d.wantCheckpoint(job.lsn) {
			d.nudgePersister()
		}
	}
}

// wantCheckpoint reports whether the WAL has grown past the automatic
// checkpoint threshold since the last checkpoint.
func (d *Durable) wantCheckpoint(lsn int64) bool {
	every := d.dopts.checkpointEvery()
	return every > 0 && lsn > 0 && lsn-d.ckptOff.Load() >= every
}

// persister is the store's only background disk worker. Healthy, every
// nudge takes an automatic checkpoint when the WAL has outgrown its
// threshold. Degraded, it probes the disk on a doubling backoff and
// re-arms the store once the disk accepts durable writes again. The
// backoff is a timer in the select, so WaitPersisted never waits it out.
func (d *Durable) persister() {
	defer close(d.persistDone)
	var (
		probe   <-chan time.Time // the next disk probe; nil while healthy
		backoff time.Duration
	)
	for {
		switch {
		case !d.degraded.Load():
			probe = nil
		case probe == nil:
			backoff = probeBackoff
			probe = time.After(backoff)
		}
		select {
		case <-d.persistStop:
			return
		case <-d.persistNote:
			d.maybeCheckpoint()
		case ready := <-d.persistSync:
			// drain a pending nudge first so the wait covers it
			select {
			case <-d.persistNote:
			default:
			}
			d.maybeCheckpoint()
			close(ready)
		case <-probe:
			// a failed probe or re-arm leaves the store degraded: the next
			// probe waits twice as long
			backoff = min(2*backoff, maxProbeBackoff)
			probe = time.After(backoff)
			if d.probeDisk() == nil {
				d.rearm()
			}
		}
	}
}

// nudgePersister wakes the persist worker without blocking; a wake-up
// already pending covers this one.
func (d *Durable) nudgePersister() {
	select {
	case d.persistNote <- struct{}{}:
	default:
	}
}

// maybeCheckpoint runs an automatic checkpoint when due. Failures get
// bounded retries; exhaustion or a fatal fault degrades the store — the
// WAL already holds the truth, so a failed checkpoint costs replay time,
// never data.
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

// WaitPersisted blocks until the persist worker has taken any automatic
// checkpoint due as of the call. It does not barrier on the applier.
func (d *Durable) WaitPersisted() {
	ready := make(chan struct{})
	select {
	case d.persistSync <- ready:
		<-ready
	case <-d.persistDone:
		// worker already shut down: nothing is pending
	}
}

// degrade moves the store into degraded read-only mode and wakes the
// persist worker, which probes the disk until it can re-arm the store.
// Idempotent; the first cause wins. It takes only errMu — callers may hold
// seqMu — and its nudge never blocks on or closes a channel, so a degrade
// after Close (from Err, Sync or Durability) is harmless.
func (d *Durable) degrade(cause error) {
	if cause == nil {
		return
	}
	d.errMu.Lock()
	if d.degradeCause == nil {
		d.degradeCause = cause
	}
	flipped := d.degraded.CompareAndSwap(false, true)
	d.errMu.Unlock()
	if flipped {
		d.m.degradeEvents.Inc()
		d.nudgePersister()
	}
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
// post-crash replay of the poisoned log could recover. On any failure the
// store stays degraded and the persist worker probes again.
func (d *Durable) rearm() {
	d.seqMu.Lock()
	if d.closed {
		d.seqMu.Unlock()
		return
	}
	cut, err := d.writeCheckpoint(true)
	if err != nil {
		d.seqMu.Unlock()
		return
	}
	//logr:allow(lockdiscipline) re-arm must exclude the commit stage while it swaps the WAL
	nw, err := wal.Create(d.fs, filepath.Join(d.dir, walFileName),
		cut, wal.Options{Sync: d.dopts.Sync, Interval: d.dopts.SyncInterval, Metrics: d.m.wal})
	if err != nil {
		d.seqMu.Unlock()
		return
	}
	old := d.w.Swap(nw)
	d.errMu.Lock()
	d.degradeCause = nil
	d.errMu.Unlock()
	d.degraded.Store(false)
	d.seqMu.Unlock()
	_ = old.Close() // the old WAL is the poisoned one; its close error is moot
}

// Err reports the store's current health: the degraded-mode cause while
// degraded (cleared when the persist worker re-arms writes; a deferred WAL
// fsync that failed after the ack degrades the store too), nil if healthy.
func (d *Durable) Err() error {
	d.maybeDegradeWal(d.w.Load())
	if d.degraded.Load() {
		return d.degradedErr()
	}
	return nil
}

// Degraded reports whether the store is in degraded read-only mode.
func (d *Durable) Degraded() bool { return d.Err() != nil }

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

// Close drains the pipeline — applier, then persist worker — syncs and
// closes the WAL, and releases the data directory's single-writer lock.
// Reads through Mem keep working; further mutations report ErrClosed.
// Close returns the first error the asynchronous stages hit, if any.
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
	close(d.persistStop)
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
