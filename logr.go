// Package logr is a workload-analytics log compressor: an implementation of
// "Query Log Compression for Workload Analytics" (Xie, Chandola, Kennedy —
// VLDB 2018).
//
// LogR losslessly parses a SQL access log, regularizes each query into
// conjunctive form, encodes it as a feature vector (Aligon et al.'s scheme:
// SELECT columns, FROM tables, conjunctive WHERE atoms), and then *lossily*
// compresses the bag of feature vectors into a naive mixture encoding: the
// log is clustered and each cluster is summarized by its per-feature
// marginals. The summary supports closed-form estimation of aggregate
// workload statistics — "how many queries carry this predicate / touch
// these tables together" — which is what index advisors, view selectors and
// workload monitors consume.
//
// # Quick start
//
//	w := logr.FromEntries([]logr.Entry{
//		{SQL: "SELECT _id FROM messages WHERE status = ?", Count: 900},
//		{SQL: "SELECT name FROM contacts WHERE chat_id = ?", Count: 100},
//	})
//	s, _ := w.Compress(logr.CompressOptions{Clusters: 2})
//	freq, _ := s.EstimateFrequency("SELECT _id FROM messages WHERE status = ?")
//
// The fidelity/size trade-off is governed by the number of clusters: more
// clusters mean lower Reproduction Error (paper Section 4) and higher Total
// Verbosity (summary size). Compress with Clusters == 0 to auto-sweep for
// the fewest clusters that reach a target error.
//
// # Parallelism
//
// The whole pipeline is data-parallel behind a bounded worker pool
// (internal/parallel): Append and Load parse, regularize and
// feature-extract entries on parallel workers with an ordered merge that
// keeps codebook assignment deterministic; Compress fans out the k-means
// assignment step and restarts, the hierarchical method's O(n²) distance
// matrix, the auto sweep's merge scoring, and
// the word-packed containment counting behind marginal estimation. Both
// Options.Parallelism and CompressOptions.Parallelism default to all cores
// (0); setting 1 forces serial execution. For a fixed Seed the output is
// bit-identical at any parallelism level.
//
// A *Workload is safe for concurrent use: a monitoring goroutine can Append
// while others Compress or query earlier snapshots.
//
// # Binary kernels
//
// Query feature vectors are binary (q ∈ {0,1}^n, paper Section 2.1), and
// since both methods' distances reduce to a popcount on binary data,
// Compress and Recompress cluster the word-packed vectors directly: k-means
// scores a query q against a float centroid c through the sparse identity
// ‖q−c‖² = ‖c‖² + Σ_{i∈q}(1−2c_i) — touching only q's set bits, with ‖c‖²
// precomputed per centroid and Hamerly-style movement bounds skipping
// settled points — while hierarchical clustering builds its Hamming
// distance matrix from XOR popcounts. No dense float64 point matrix is
// ever materialized, cutting Compress's peak clustering memory from
// O(distinct·universe·8B) to the log's packed O(distinct·universe/8B) plus
// K centroid rows, and making the hot loops ~an order of magnitude faster
// (see the "Binary kernels" section of the README for measurements). The
// dense float64 path is the equivalence oracle in internal/core's tests:
// for a fixed Seed both paths produce the identical assignment and
// Reproduction Error.
//
// # Summary epochs and incremental recompression
//
// Because the codebook only grows, a Summary is universe-versioned: it
// carries the Epoch — (universe size, total queries) — of the snapshot it
// compressed, and every probe path resolves pattern features against that
// universe. A feature registered by an Append *after* the summary was built
// is out-of-universe for it: the summarized log never contained the
// feature, so EstimateFrequency and EstimateCount report 0, CheckDrift
// counts the query as novel, and exact counting (Workload.Count) retries on
// a fresh snapshot or reports an *OutOfSnapshotError — never a weaker
// silent answer.
//
// Epochs also make the summary incrementally maintainable. A monitoring
// loop that compresses every refresh re-clusters the full log each time;
// Workload.Recompress(prev, opts) instead clusters only the delta appended
// since prev's epoch — warm-starting from prev's component centroids —
// merges it into the prior mixture in one linear pass, and re-evaluates
// the Reproduction Error. If the merged error drifts more than RecompressOptions.
// MaxErrorGrowth above prev's (the delta carries structure the old
// partition cannot absorb), Recompress automatically falls back to a full
// re-cluster; Summary.Incremental reports which path produced a summary.
//
// # Segmented store and windowed analytics
//
// A long-running ingest additionally segments the stream: Seal (explicit,
// or automatic every Options.SegmentThreshold queries) freezes the entries
// appended since the last seal into an immutable segment with its own
// epoch-stamped sub-log and a lazily built summary, warm-started from the
// previous segment's centroids. CompressRange(from, to, opts) then derives
// the summary of any contiguous sealed range algebraically — per-segment
// mixtures are grown onto the union universe, merged, and consolidated down
// to the requested component budget, falling back to a full re-cluster of
// the range only if consolidation drifts the Reproduction Error too far.
// DriftBetween scores one segment range against another the same way,
// turning drift detection into sliding-window comparisons of per-segment
// summaries with no re-encoding of raw entries; DropBefore retires old
// segments (retention) and the store transparently compacts runs of small
// adjacent segments. A store with a single sealed segment compresses
// bit-identically to Compress on the same snapshot.
//
// # Durability and serving
//
// OpenDir turns the store durable: mutations are written to an append-only
// CRC-checked write-ahead log before they apply, sealed segments are
// exported as artifacts (binary summary + sub-log), and reopening the
// directory recovers a workload equivalent to one that never crashed, up
// to the last durable record — the crash-recovery property tests truncate
// the WAL at every record boundary and assert byte-identical compression.
// Options.Sync picks the fsync policy (always / interval group-commit /
// never); Sync and Close flush explicitly. The logrd daemon
// (internal/server, cmd/logrd, `logr serve`) serves a durable workload
// over HTTP/JSON — batched ingest with backpressure, estimation, exact
// counts, windowed drift, segment control and binary summary export — with
// graceful drain-seal-sync shutdown; package logr/client is its Go client.
package logr

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"logr/internal/apps"
	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/feature"
	"logr/internal/obs"
	"logr/internal/regularize"
	"logr/internal/sqlparser"
	"logr/internal/store"
	"logr/internal/vfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// ErrDegraded reports a mutation attempted while a durable workload is in
// degraded read-only mode: a disk fault exhausted its retries (or was
// immediately fatal, like a full disk). Reads keep serving from applied
// in-memory state, and a background probe re-enables writes once the disk
// recovers; until then every mutation fails wrapping this error.
var ErrDegraded = store.ErrDegraded

// Entry is one distinct query of a workload with its multiplicity.
type Entry struct {
	SQL   string
	Count int
}

// Stats summarizes the encode pipeline over a workload (the columns of the
// paper's Table 1). TotalQueries also counts the entries that did not parse
// as SELECT; Queries counts only those that did.
type Stats = workload.PipelineStats

// Workload is an encoded query log backed by the segmented store: an
// incremental encode pipeline whose ingest can be sealed into immutable
// segments, plus a lazily materialized snapshot of the whole stream's
// feature-vector form and codebook. All methods are safe for concurrent
// use.
//
// A Workload is either in-memory (FromEntries, Load) or durable (OpenDir):
// a durable workload writes every ingest mutation to a write-ahead log
// before applying it and persists sealed segments as artifacts, so Close —
// or a crash — loses at most the fsync window of the configured Options.Sync
// policy. Append reports persistence errors directly; the mutation methods
// that predate durability (Seal, DropBefore, CompactSegments) record the
// first persistence failure instead, which Err, Sync and Close all report —
// check one of them at your commit points.
type Workload struct {
	st  *store.Store
	d   *store.Durable // nil for in-memory workloads
	par int            // encode-side parallelism, reused by Count

	errMu  sync.Mutex
	sticky error
}

// Options tune workload encoding and ingest segmentation.
type Options struct {
	// ExtendedScheme additionally extracts GROUP BY, ORDER BY and
	// aggregate features (Makiyama-style; the paper's Section 2.2 cites it
	// as a richer alternative to the default Aligon scheme).
	ExtendedScheme bool
	// KeepConstants disables constant scrubbing.
	KeepConstants bool
	// Parallelism bounds the encode workers (0 = all cores, 1 = serial).
	// The encoded workload is identical at any setting.
	Parallelism int
	// SegmentThreshold seals the ingest buffer into an immutable segment
	// once it holds at least this many queries (see Seal/CompressRange).
	// 0 means segments are cut only by explicit Seal calls.
	SegmentThreshold int
	// CompactSegments, when > 0, automatically merges runs of adjacent
	// sealed segments smaller than this many queries, so a trickle of tiny
	// seals cannot fragment range queries.
	CompactSegments int
	// MaxLineBytes caps one input line for Load/LoadCompact (0 = 1 MiB).
	// Longer lines are reported as an error naming the offending line.
	MaxLineBytes int
	// Sync selects the WAL fsync policy of a workload opened with OpenDir:
	// how much acknowledged ingest a machine crash may lose. Ignored by
	// in-memory workloads.
	Sync SyncPolicy
	// SyncEvery bounds the SyncInterval policy's staleness window
	// (0 = 100ms).
	SyncEvery time.Duration
	// SealSummary configures the summary built and persisted into each
	// sealed segment's artifact of a durable workload. The zero value
	// selects Clusters = 8, Seed = 1. Queries using the same options hit
	// these caches; others re-cluster lazily.
	SealSummary CompressOptions
	// DisableSealSummaries skips the summary build at seal time: segment
	// artifacts then carry only the sub-log and summaries are built lazily
	// on first use. For ingest paths where seal latency matters more than
	// recovery warmth.
	DisableSealSummaries bool
	// ApplyQueue bounds a durable workload's apply queue, in ingest
	// windows (≈8k entries each; 0 = 64). Appends are acknowledged as soon
	// as the WAL accepts them; a full queue is the pipeline's backpressure,
	// blocking further appends until the applier catches up.
	ApplyQueue int
	// CheckpointBytes is how far a durable workload's WAL may grow past the
	// last checkpoint before a new one is taken automatically (full state
	// snapshot + WAL rotation, bounding recovery replay to the tail).
	// 0 selects the 1 MiB default; negative disables automatic checkpoints
	// (Checkpoint still works on demand). Ignored by in-memory workloads.
	CheckpointBytes int64
	// FS substitutes the filesystem a durable workload runs on — the fault
	// injection seam of the robustness tests (internal/vfs/faultfs). Nil
	// means the real filesystem; external callers leave it nil.
	FS vfs.FS
	// Metrics receives a durable workload's telemetry: WAL flush/fsync
	// series, apply-queue depth and lag gauges, barrier waits, seal and
	// checkpoint costs, retry and degrade counts. Pass the same registry
	// the serving layer scrapes (internal/obs; logrd wires this up
	// automatically). Nil disables instrumentation. Ignored by in-memory
	// workloads.
	Metrics *obs.Registry
}

// SyncPolicy selects when a durable workload's WAL reaches stable storage.
type SyncPolicy int

const (
	// SyncInterval (the default) fsyncs when Options.SyncEvery has elapsed
	// since the last sync — group commit with a bounded staleness window.
	SyncInterval SyncPolicy = iota
	// SyncAlways fsyncs every append: an acknowledged Append survives a
	// machine crash.
	SyncAlways
	// SyncNever leaves flushing to the OS; Sync and Close still flush.
	SyncNever
)

func (p SyncPolicy) internal() wal.SyncPolicy {
	switch p {
	case SyncAlways:
		return wal.SyncAlways
	case SyncNever:
		return wal.SyncNever
	}
	return wal.SyncInterval
}

func (o Options) internal() workload.EncodeOptions {
	scheme := feature.AligonScheme
	if o.ExtendedScheme {
		scheme = feature.ExtendedScheme
	}
	return workload.EncodeOptions{Scheme: scheme, KeepConstants: o.KeepConstants, Parallelism: o.Parallelism}
}

func (o Options) storeOptions() store.Options {
	return store.Options{
		SealThreshold:     o.SegmentThreshold,
		CompactMinQueries: o.CompactSegments,
		Encode:            o.internal(),
	}
}

// FromEntries encodes a deduplicated workload with default options.
// Unparseable entries are counted in Stats and skipped, as in the paper's
// data preparation.
func FromEntries(entries []Entry) *Workload {
	return FromEntriesWithOptions(entries, Options{})
}

// FromEntriesWithOptions encodes a deduplicated workload. The in-memory
// append cannot fail, so the constructor feeds the store directly rather
// than routing through Append's durable error path.
func FromEntriesWithOptions(entries []Entry, opts Options) *Workload {
	w := &Workload{st: store.New(opts.storeOptions()), par: opts.Parallelism}
	w.st.Append(publicToInternal(entries))
	return w
}

// publicToInternal converts façade entries to pipeline entries,
// defaulting non-positive counts to one occurrence.
func publicToInternal(entries []Entry) []workload.LogEntry {
	batch := make([]workload.LogEntry, len(entries))
	for i, e := range entries {
		c := e.Count
		if c <= 0 {
			c = 1
		}
		batch[i] = workload.LogEntry{SQL: e.SQL, Count: c}
	}
	return batch
}

// Append feeds more entries through the pipeline (a growing log file, a
// monitoring stream). Entries are parsed and regularized on parallel
// workers and merged deterministically; the snapshot the query methods read
// is rebuilt lazily on next use, not on every Append. The codebook extends
// in place; summaries built from earlier snapshots remain valid for their
// own universe.
//
// On a durable workload the batch is handed to the WAL's group-commit
// writer and acknowledged without waiting for the encoder: a single
// ordered applier encodes batches off the caller's critical path, and the
// read methods barrier on it, so an acknowledged Append is always visible
// to the caller's subsequent reads. Under SyncPolicy "always" the
// acknowledgement additionally waits until the batch is on stable storage
// (concurrent callers share fsyncs). An error reports a persistence
// failure: the batch was not acknowledged. In-memory workloads apply
// synchronously and always return nil.
func (w *Workload) Append(entries []Entry) error {
	batch := publicToInternal(entries)
	if w.d != nil {
		return w.note(w.d.Append(batch))
	}
	w.st.Append(batch)
	return nil
}

// note records a persistence error in the workload's sticky slot (reported
// by Err, Sync and Close) and passes it through. Degraded-mode errors are
// deliberately not latched: degradation is current health, owned and
// cleared by the store's recovery probe, so Err tracks it live instead of
// pinning the workload to a fault that has since healed.
func (w *Workload) note(err error) error {
	if err != nil && !errors.Is(err, ErrDegraded) {
		w.errMu.Lock()
		if w.sticky == nil {
			w.sticky = err
		}
		w.errMu.Unlock()
	}
	return err
}

// Err reports the workload's persistence health: the degraded-mode cause
// while a durable workload is degraded (cleared automatically when its
// recovery probe re-enables writes), else the first persistence error
// recorded by a mutation whose signature predates durability (Seal,
// DropBefore, CompactSegments), by Append, or by the asynchronous pipeline
// stages (deferred WAL flush/fsync, background artifact persistence).
// In-memory workloads always report nil.
func (w *Workload) Err() error {
	if w.d != nil {
		if err := w.d.Err(); err != nil {
			return err
		}
	}
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.sticky
}

// Degraded reports whether a durable workload is in degraded read-only
// mode (see ErrDegraded). Always false for in-memory workloads.
func (w *Workload) Degraded() bool {
	return w.d != nil && w.d.Degraded()
}

// DurabilityInfo is a snapshot of a durable workload's durability state.
// The zero value describes an in-memory workload.
type DurabilityInfo = store.DurabilityInfo

// Durability reports a durable workload's durability state (WAL tail
// size, checkpoint coverage, degraded mode and its cause). In-memory
// workloads report the zero value.
func (w *Workload) Durability() DurabilityInfo {
	if w.d == nil {
		return DurabilityInfo{}
	}
	return w.d.Durability()
}

// Checkpoint captures a durable workload's full in-memory state into the
// checkpoint file and rotates the covered WAL prefix away, bounding the
// next recovery's replay to the records since this call. Automatic
// checkpoints run every Options.CheckpointBytes of WAL growth; this forces
// one now. A no-op on in-memory workloads.
func (w *Workload) Checkpoint() error {
	if w.d == nil {
		return nil
	}
	return w.note(w.d.Checkpoint())
}

// barrier waits, on a durable workload, until the asynchronous applier has
// caught up with every batch acknowledged before the call — the
// append-then-read visibility contract of the public read methods. The
// caught-up fast path is two atomic loads; in-memory workloads apply
// synchronously and skip it entirely.
func (w *Workload) barrier() {
	if w.d != nil {
		w.d.Barrier()
	}
}

// IngestLag is a snapshot of a durable workload's ingest backlog: how far
// the asynchronous apply stage trails acknowledged WAL records. The zero
// value (in-memory workloads, or a drained pipeline) means no lag.
type IngestLag = store.IngestLag

// IngestLag reports the ingest pipeline's current backlog. In-memory
// workloads always report the zero value.
func (w *Workload) IngestLag() IngestLag {
	if w.d == nil {
		return IngestLag{}
	}
	return w.d.Lag()
}

// snapshot returns the current encode snapshot of the whole stream (sealed
// segments and active buffer together). The encoder caches it and rebuilds
// only after a mutation, so calls between Appends are free; the returned
// result is immutable (later Appends build a new Log rather than mutating
// it).
func (w *Workload) snapshot() workload.EncodeResult {
	w.barrier()
	return w.st.Snapshot()
}

// Load reads a raw access log (one SQL statement per line, duplicates
// repeated) and encodes it with default options.
func Load(r io.Reader) (*Workload, error) {
	return LoadWithOptions(r, Options{})
}

// LoadWithOptions reads a raw access log and encodes it with the given
// options.
func LoadWithOptions(r io.Reader, opts Options) (*Workload, error) {
	entries, err := workload.ReadPlainOptions(r, workload.ReadOptions{MaxLineBytes: opts.MaxLineBytes})
	if err != nil {
		return nil, err
	}
	return fromInternal(entries, opts), nil
}

// LoadCompact reads a deduplicated "count<TAB>sql" log and encodes it with
// default options.
func LoadCompact(r io.Reader) (*Workload, error) {
	return LoadCompactWithOptions(r, Options{})
}

// LoadCompactWithOptions reads a deduplicated "count<TAB>sql" log and
// encodes it with the given options.
func LoadCompactWithOptions(r io.Reader, opts Options) (*Workload, error) {
	entries, err := workload.ReadCompactOptions(r, workload.ReadOptions{MaxLineBytes: opts.MaxLineBytes})
	if err != nil {
		return nil, err
	}
	return fromInternal(entries, opts), nil
}

func fromInternal(entries []workload.LogEntry, opts Options) *Workload {
	w := &Workload{st: store.New(opts.storeOptions()), par: opts.Parallelism}
	w.st.Append(entries)
	return w
}

// OpenDir opens (creating if needed) a durable workload rooted at dir: the
// persistent form of a long-running ingest. Every mutation is written to an
// append-only, CRC-checked write-ahead log under dir before it is applied,
// and each sealed segment is exported as a self-contained artifact (its
// binary summary plus sub-log). Opening an existing directory recovers by
// restoring the latest checkpoint and replaying the WAL tail after it —
// recovery is equivalent to a workload that never crashed, up to the last
// durable record; a torn tail from a crash is truncated — and re-installs
// the seal-time summary caches from the artifacts.
//
// Checkpoints (automatic every Options.CheckpointBytes of WAL growth)
// bound both the WAL's size and the recovery replay to the tail since the
// last one; segment artifacts spare recovery the re-clustering. For exact
// pre-crash equivalence reopen
// with the same Options — SegmentThreshold and CompactSegments govern where
// replay re-cuts automatic boundaries.
func OpenDir(dir string, opts Options) (*Workload, error) {
	sealOpts, err := opts.SealSummary.internal()
	if err != nil {
		return nil, err
	}
	d, err := store.Open(dir, opts.storeOptions(), store.DurableOptions{
		Sync:                 opts.Sync.internal(),
		SyncInterval:         opts.SyncEvery,
		SealSummary:          sealOpts,
		DisableSealSummaries: opts.DisableSealSummaries,
		ApplyQueue:           opts.ApplyQueue,
		CheckpointBytes:      opts.CheckpointBytes,
		FS:                   opts.FS,
		Obs:                  opts.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &Workload{st: d.Mem(), d: d, par: opts.Parallelism}, nil
}

// Dir returns a durable workload's data directory ("" for in-memory
// workloads).
func (w *Workload) Dir() string {
	if w.d == nil {
		return ""
	}
	return w.d.Dir()
}

// Sync forces everything appended so far to stable storage — the fsync the
// configured policy may have deferred — and reports the first recorded
// persistence error, if any. A no-op on in-memory workloads.
func (w *Workload) Sync() error {
	if w.d == nil {
		return nil
	}
	if err := w.d.Sync(); err != nil {
		return w.note(err)
	}
	return w.Err()
}

// Close syncs and closes a durable workload's WAL. Reads keep working;
// further mutations fail. Close is idempotent and a no-op on in-memory
// workloads; it reports the first persistence error recorded over the
// workload's life, so a clean shutdown can end with a single check.
func (w *Workload) Close() error {
	if w.d == nil {
		return nil
	}
	if err := w.d.Close(); err != nil {
		return w.note(err)
	}
	return w.Err()
}

// Stats reports the pipeline statistics.
func (w *Workload) Stats() Stats { return w.snapshot().Stats }

// Queries returns the number of encoded queries (duplicates included).
// Served from the encoder's running counter in O(1) — an ingest loop can
// ask after every batch without forcing a snapshot rebuild.
func (w *Workload) Queries() int { w.barrier(); return w.st.TotalQueries() }

// ActiveQueries returns the number of encoded queries in the active
// (unsealed) ingest buffer — what the next Seal would freeze.
func (w *Workload) ActiveQueries() int { w.barrier(); return w.st.ActiveQueries() }

// Count returns the exact Γ_b(L): how many queries contain every feature of
// the given pattern query. This reads the *uncompressed* log; after
// compression use Summary.EstimateCount.
//
// Count never answers from a snapshot older than the pattern: if a
// concurrent Append registers one of the pattern's features between the
// snapshot and the probe, Count retries on a fresh snapshot (which includes
// the feature) instead of silently counting a weaker pattern, and reports
// an *OutOfSnapshotError if the race persists.
func (w *Workload) Count(patternSQL string) (int, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ {
		res := w.snapshot()
		b, err := pattern(res, patternSQL)
		if err != nil {
			var oos *OutOfSnapshotError
			if errors.As(err, &oos) {
				// a concurrent Append registered the feature after this
				// snapshot was taken; a fresh snapshot covers it
				lastErr = err
				continue
			}
			return 0, err
		}
		return res.Log.CountP(b, w.par), nil
	}
	return 0, lastErr
}

// OutOfSnapshotError reports a probe whose features the codebook knows but
// the queried snapshot or summary predates: they were registered by an
// Append after the snapshot's epoch, so the snapshot cannot say anything
// about them. Callers holding the live Workload can retry on a fresh
// snapshot; callers holding only a Summary should treat the pattern as
// unseen by it.
// UnknownFeatureError reports a pattern using features this workload has
// never seen. For containment counts that is a definite answer — zero
// queries can match — which is why the serving layer maps it to 404 and
// the cluster gateway folds such shards in as zero instead of treating
// them as unavailable: under hash partitioning most shards never see most
// patterns' features.
type UnknownFeatureError struct {
	// Features are the never-seen features, rendered ⟨text, kind⟩.
	Features []string
}

func (e *UnknownFeatureError) Error() string {
	return "logr: pattern uses features absent from the workload: " + strings.Join(e.Features, ", ")
}

type OutOfSnapshotError struct {
	// Features are the out-of-snapshot features, rendered ⟨text, kind⟩.
	Features []string
}

func (e *OutOfSnapshotError) Error() string {
	return "logr: pattern uses features registered after this snapshot: " + strings.Join(e.Features, ", ")
}

// pattern parses a SQL fragment-query and maps it onto the snapshot's
// universe. A feature never seen in the workload yields an error; a feature
// registered after the snapshot yields an *OutOfSnapshotError rather than a
// silently weakened pattern.
func pattern(res workload.EncodeResult, patternSQL string) (bitvec.Vector, error) {
	p, err := patternProbe(res.Book, res.Log.Universe(), patternSQL)
	if err != nil {
		return bitvec.Vector{}, err
	}
	if len(p.unknown) > 0 {
		return bitvec.Vector{}, &UnknownFeatureError{Features: p.unknown}
	}
	if len(p.stale) > 0 {
		return bitvec.Vector{}, &OutOfSnapshotError{Features: p.stale}
	}
	return p.vector(res.Log.Universe()), nil
}

// probe is a parsed pattern or window query resolved against one universe
// snapshot: idx are the usable in-universe feature indices, unknown the
// features the codebook has never seen, and stale the features it knows but
// that were registered after the snapshot (index ≥ universe).
type probe struct {
	idx     []int
	unknown []string
	stale   []string
}

// vector materializes the in-universe indices over the snapshot's universe.
// The resolver guarantees every index fits, so this cannot panic.
func (p probe) vector(universe int) bitvec.Vector {
	v := bitvec.New(universe)
	for _, i := range p.idx {
		v.Set(i)
	}
	return v
}

// patternProbe resolves a single-block pattern query (probes must be
// conjunctive, Section 6.2) against a universe snapshot of the codebook.
func patternProbe(book *feature.Codebook, universe int, patternSQL string) (probe, error) {
	stmt, err := sqlparser.Parse(patternSQL)
	if err != nil {
		return probe{}, fmt.Errorf("logr: pattern does not parse: %w", err)
	}
	r := regularize.Regularize(stmt, regularize.DefaultOptions)
	if len(r.Blocks) != 1 {
		return probe{}, fmt.Errorf("logr: pattern must regularize to a single conjunctive block")
	}
	return resolveProbe(book, universe, r.Blocks[0:1]), nil
}

// windowProbe resolves an arbitrary query the way the pipeline encodes it —
// merging the features of every conjunctive block — against a universe
// snapshot. Used by drift detection, where OR-carrying queries are normal
// traffic, not probes.
func windowProbe(book *feature.Codebook, universe int, sql string) (probe, error) {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		return probe{}, err
	}
	r := regularize.Regularize(stmt, regularize.DefaultOptions)
	return resolveProbe(book, universe, r.Blocks), nil
}

// resolveProbe is the single universe-aware resolver behind every probe
// path (pattern counting, summary estimation, drift windows). It maps the
// blocks' features onto the codebook and classifies each against the given
// universe snapshot: in-universe (usable), registered after the snapshot
// (stale — the snapshot provably never saw the feature), or never
// registered (unknown). Features enter the codebook append-only, so index
// < universe is exactly "existed at the snapshot".
func resolveProbe(book *feature.Codebook, universe int, blocks []*sqlparser.Select) probe {
	scratch := feature.NewCodebook(book.Scheme())
	var p probe
	set := map[int]bool{}
	for _, blk := range blocks {
		for _, fi := range scratch.Extract(blk) {
			f := scratch.Feature(fi)
			if f.Kind == feature.SelectKind && f.Text == "*" {
				// a bare star in a probe means "any projection", not the
				// literal ⟨*, SELECT⟩ feature
				continue
			}
			i, ok := book.Lookup(f)
			switch {
			case !ok:
				p.unknown = append(p.unknown, f.String())
			case i >= universe:
				p.stale = append(p.stale, f.String())
			default:
				set[i] = true
			}
		}
	}
	for i := range set {
		p.idx = append(p.idx, i)
	}
	sort.Ints(p.idx)
	return p
}

// CompressOptions configure the LogR compressor.
type CompressOptions struct {
	// Clusters is K, the number of mixture components. 0 auto-sweeps:
	// Method clusters at MaxClusters, the clusters are merged greedily by
	// the exact Error each merge adds, and the fewest merged clusters with
	// Error ≤ TargetError are kept — all MaxClusters when none qualify.
	Clusters int
	// Method is "kmeans" (default) or "hierarchical" (average linkage under
	// Hamming distance). Section 6.1's spectral clustering and its other
	// distances run only in the paper-figure drivers (cmd/logr-bench).
	Method string
	// TargetError is the auto sweep's Error bound (nats).
	TargetError float64
	// MaxClusters is the cluster count the auto sweep starts from and the
	// most components it returns (default 32).
	MaxClusters int
	// Seed makes clustering reproducible.
	Seed int64
	// Parallelism bounds the compression workers (0 = all cores, 1 =
	// serial). For a fixed Seed the summary is bit-identical at any
	// setting; only throughput changes.
	Parallelism int
}

// Summary is a LogR-compressed workload: a naive mixture encoding plus the
// codebook that translates patterns back to SQL. A Summary is
// universe-versioned: it remembers the Epoch of the snapshot it compressed
// and resolves every probe against that universe, so it stays safe to query
// — and incrementally maintainable via Workload.Recompress — while the
// workload keeps growing.
type Summary struct {
	c    *core.Compressed
	book *feature.Codebook
	// epoch is the snapshot version the summary was built from; counts are
	// the snapshot's per-distinct-vector multiplicities, kept so Recompress
	// can extract the delta appended since. counts is nil for summaries
	// restored with ReadSummary (no delta basis — Recompress falls back to
	// a full compression).
	epoch       workload.Epoch
	counts      []int
	incremental bool
}

// Epoch identifies the workload snapshot a summary was built from. Its
// fields are monotone non-decreasing as the workload grows, so epochs
// totally order the summaries of one workload. Distinct is 0 for summaries
// that were not compressed from a snapshot (ReadSummary, MergeSummaries).
type Epoch = workload.Epoch

// Epoch returns the snapshot version the summary covers.
func (s *Summary) Epoch() Epoch { return s.epoch }

// Incremental reports whether the summary was produced by merging prior
// summaries — Recompress's delta-merge path, or CompressRange's algebraic
// merge of per-segment summaries — rather than by a fresh clustering. It is
// false for full compressions, including the error-drift fallbacks inside
// Recompress and CompressRange.
func (s *Summary) Incremental() bool { return s.incremental }

// newSummary wraps a compression result with the snapshot version it
// covers, capturing the per-distinct multiplicities future Recompress calls
// diff against.
func newSummary(c *core.Compressed, res workload.EncodeResult, incremental bool) *Summary {
	return &Summary{c: c, book: res.Book, epoch: res.Epoch, counts: res.Counts(), incremental: incremental}
}

// Compress builds the naive mixture encoding from the current snapshot.
// Safe to call while another goroutine Appends; the summary covers the
// entries appended before the call.
func (w *Workload) Compress(opts CompressOptions) (*Summary, error) {
	coreOpts, err := opts.internal()
	if err != nil {
		return nil, err
	}
	res := w.snapshot()
	c, err := core.Compress(res.Log, coreOpts)
	if err != nil {
		return nil, err
	}
	return newSummary(c, res, false), nil
}

func (opts CompressOptions) internal() (core.CompressOptions, error) {
	method, err := parseMethod(opts.Method)
	if err != nil {
		return core.CompressOptions{}, err
	}
	return core.CompressOptions{
		K:           opts.Clusters,
		Method:      method,
		Seed:        opts.Seed,
		TargetError: opts.TargetError,
		MaxK:        opts.MaxClusters,
		Parallelism: opts.Parallelism,
	}, nil
}

// RecompressOptions configure Workload.Recompress. The embedded
// CompressOptions govern the full re-cluster fallback (and the delta
// assignment's parallelism); the incremental path itself consumes no
// randomness and is deterministic regardless of Seed.
type RecompressOptions struct {
	CompressOptions
	// MaxErrorGrowth is the allowed relative growth of the merged summary's
	// Reproduction Error over prev.Error() before Recompress abandons the
	// merge and falls back to a full re-cluster. 0 means the default
	// (0.10); a negative value disables the fallback.
	MaxErrorGrowth float64
}

// Recompress updates prev for the entries appended since prev's epoch
// without re-clustering the whole log: the delta is clustered alone —
// multiplicity increments rejoin the component already holding their query
// shape, brand-new shapes are assigned to the nearest component centroid —
// and merged into the prior mixture. A monitoring loop's refresh therefore
// pays the expensive clustering only for the delta, plus one cheap linear
// merge-and-rescore pass over the partition. The merged summary's Reproduction
// Error is re-evaluated against the true merged partition; if it drifted
// more than opts.MaxErrorGrowth above prev's, or prev cannot support a
// merge (e.g. it was restored with ReadSummary), Recompress transparently
// falls back to a full Compress with opts.CompressOptions. Check
// Summary.Incremental to see which path ran.
//
// prev must come from this workload; passing a summary of a different
// workload is reported as an error. A nil prev is equivalent to Compress.
// Safe to call while other goroutines Append: the new summary covers
// exactly the entries appended before the call.
func (w *Workload) Recompress(prev *Summary, opts RecompressOptions) (*Summary, error) {
	coreOpts, err := opts.CompressOptions.internal()
	if err != nil {
		return nil, err
	}
	res := w.snapshot()
	if prev == nil {
		c, err := core.Compress(res.Log, coreOpts)
		if err != nil {
			return nil, err
		}
		return newSummary(c, res, false), nil
	}
	if prev.counts == nil {
		// restored with ReadSummary: no delta basis, compress from scratch
		c, err := core.Compress(res.Log, coreOpts)
		if err != nil {
			return nil, err
		}
		return newSummary(c, res, false), nil
	}
	if prev.book != res.Book {
		return nil, fmt.Errorf("logr: Recompress: summary was built from a different workload")
	}
	c, incremental, err := core.Recompress(prev.c, res.Log, prev.counts, coreOpts, core.RecompressOptions{MaxErrorGrowth: opts.MaxErrorGrowth})
	if err != nil {
		return nil, err
	}
	return newSummary(c, res, incremental), nil
}

// SegmentInfo describes one sealed segment of the workload's ingest
// stream.
type SegmentInfo = store.SegmentMeta

// Seal freezes the entries appended since the last seal into an immutable
// segment and returns its ID; ok is false when the buffer is empty. With
// Options.SegmentThreshold set, sealing also happens automatically as the
// buffer fills. On a durable workload the seal is WAL-logged and ordered
// with in-flight appends; the segment's artifact (summary + sub-log) is
// built by a background worker so the seal never stalls ingest.
// Persistence failures are recorded for Err/Sync/Close.
func (w *Workload) Seal() (id int, ok bool) {
	if w.d != nil {
		meta, ok, err := w.d.Seal()
		w.note(err)
		return meta.ID, ok
	}
	meta, ok := w.st.Seal()
	return meta.ID, ok
}

// Segments lists the live sealed segments in order.
func (w *Workload) Segments() []SegmentInfo {
	w.barrier()
	return w.st.Segments()
}

// SealedRange returns the seal-id span [from, to) covered by the live
// sealed segments — the widest range CompressRange accepts. ok is false
// when nothing is sealed.
func (w *Workload) SealedRange() (from, to int, ok bool) {
	w.barrier()
	metas := w.st.Segments()
	if len(metas) == 0 {
		return 0, 0, false
	}
	return metas[0].ID, metas[len(metas)-1].EndID, true
}

// DropBefore retires every sealed segment lying entirely before seal id —
// the retention knob of a long-running store. The segments' sub-logs and
// summaries are released; the codebook (append-only by design) and the
// active buffer are untouched. It returns the number of segments dropped.
// On a durable workload the retention is WAL-logged and the dropped
// segments' artifact files removed (the WAL keeps their raw entries: the
// codebook and statistics they contributed remain live state).
func (w *Workload) DropBefore(id int) int {
	if w.d != nil {
		n, err := w.d.DropBefore(id)
		w.note(err)
		return n
	}
	return w.st.DropBefore(id)
}

// CompactSegments merges runs of adjacent sealed segments smaller than
// minQueries into single segments and returns the number of segments
// eliminated. Options.CompactSegments runs this automatically after every
// seal.
func (w *Workload) CompactSegments(minQueries int) int {
	if w.d != nil {
		n, err := w.d.Compact(minQueries)
		w.note(err)
		return n
	}
	return w.st.Compact(minQueries)
}

// CompressRange summarizes the contiguous sealed segments spanning seal
// ids [from, to) using the summary algebra: per-segment summaries (cached,
// built on demand, warm-started from their predecessor's centroids) are
// merged over the union universe and consolidated down to opts.Clusters
// components — or, with Clusters == 0 and a TargetError, consolidated as
// far as the error target allows. Only if consolidation drifts the
// Reproduction Error more than 10% above the lossless merge does the range
// get fully re-clustered. A single-segment range returns that segment's
// summary, bit-identical to compressing the segment directly.
//
// The returned summary is universe-versioned like any other: probes
// resolve against the range's end epoch. It has no delta basis, so
// Recompress against it falls back to a full compression.
func (w *Workload) CompressRange(from, to int, opts CompressOptions) (*Summary, error) {
	coreOpts, err := opts.internal()
	if err != nil {
		return nil, err
	}
	w.barrier()
	res, err := w.st.CompressRange(from, to, coreOpts, store.RangeOptions{})
	if err != nil {
		return nil, err
	}
	return &Summary{
		c:           res.Compressed,
		book:        w.st.Book(),
		epoch:       res.Epoch,
		incremental: res.Merged,
	}, nil
}

// DriftBetween scores the traffic of one sealed segment range (the window)
// against the summary of another (the baseline): the segmented successor of
// Summary.CheckDrift. Both ranges are addressed by seal ids, the baseline
// summary comes from CompressRange (cached per-segment summaries — no
// re-clustering on repeat calls), and the window's already-encoded
// sub-logs are scored directly — no raw SQL is re-parsed or re-encoded. A
// sliding monitor therefore re-uses all but the newest segment's work from
// one refresh to the next.
//
// Queries carrying features first registered after the baseline range
// (unseen by construction) score as novel, as do shapes the baseline
// assigns (near-)zero probability.
func (w *Workload) DriftBetween(baseFrom, baseTo, winFrom, winTo int, opts CompressOptions) (DriftReport, error) {
	coreOpts, err := opts.internal()
	if err != nil {
		return DriftReport{}, err
	}
	w.barrier()
	base, err := w.st.CompressRange(baseFrom, baseTo, coreOpts, store.RangeOptions{})
	if err != nil {
		return DriftReport{}, err
	}
	win, _, err := w.st.RangeLog(winFrom, winTo)
	if err != nil {
		return DriftReport{}, err
	}
	if win.Universe() < base.Compressed.Mixture.Universe {
		win = win.Grow(base.Compressed.Mixture.Universe)
	}
	return apps.NewDriftDetectorAt(base.Compressed.Mixture, win.Universe()).Check(win, 0), nil
}

func parseMethod(s string) (core.Method, error) {
	switch strings.ToLower(s) {
	case "", "kmeans":
		return core.KMeansMethod, nil
	case "hierarchical":
		return core.HierarchicalMethod, nil
	}
	return 0, fmt.Errorf("logr: unknown method %q (accepted: kmeans, hierarchical)", s)
}

// Error returns the Generalized Reproduction Error of the summary (nats);
// lower is higher fidelity (Sections 4–5).
func (s *Summary) Error() float64 { return s.c.Err }

// Clusters returns the number of mixture components.
func (s *Summary) Clusters() int { return s.c.Mixture.K() }

// TotalVerbosity returns the summary size: the total number of
// (single-feature pattern → marginal) entries stored (Section 5.2).
func (s *Summary) TotalVerbosity() int { return s.c.Mixture.TotalVerbosity() }

// EstimateFrequency estimates p(Q ⊇ pattern | L): the fraction of the
// workload containing every feature of the pattern query (Section 6.2).
// Features the summarized snapshot never saw — whether never registered at
// all or registered by an Append after the summary's epoch — contribute
// probability 0.
func (s *Summary) EstimateFrequency(patternSQL string) (float64, error) {
	p, err := patternProbe(s.book, s.c.Mixture.Universe, patternSQL)
	if err != nil {
		return 0, err
	}
	if len(p.unknown) > 0 || len(p.stale) > 0 {
		return 0, nil
	}
	return s.c.Mixture.EstimateMarginal(p.vector(s.c.Mixture.Universe)), nil
}

// EstimateCount estimates Γ_pattern(L), the absolute number of matching
// queries.
func (s *Summary) EstimateCount(patternSQL string) (float64, error) {
	f, err := s.EstimateFrequency(patternSQL)
	if err != nil {
		return 0, err
	}
	return f * float64(s.c.Mixture.Total), nil
}

// Visualize renders the summary as per-cluster shaded pseudo-queries
// (paper Figure 1a / Figure 10 / Appendix E).
func (s *Summary) Visualize() string {
	return core.Visualize(s.c.Mixture, s.book, core.VisualizeOptions{})
}

// VisualizeHTML renders the summary as a self-contained HTML document with
// marginal-shaded features — the screen version of the paper's Figure 1a.
func (s *Summary) VisualizeHTML() string {
	return core.VisualizeHTML(s.c.Mixture, s.book, core.VisualizeOptions{})
}

// IndexPlan is the outcome of what-if index selection over the summary.
type IndexPlan = apps.IndexPlan

// CostModel parameterizes PlanIndexes.
type CostModel = apps.CostModel

// PlanIndexes runs the Section 2 what-if simulation loop: greedily pick up
// to budget indexes, re-estimating workload cost from the summary after
// each choice. Zero-valued CostModel fields take defaults (scan 1.0,
// indexed 0.1, maintenance 0.002/query).
func (s *Summary) PlanIndexes(budget int, cm CostModel) IndexPlan {
	return apps.SelectIndexesWhatIf(s.c.Mixture, s.book, budget, cm)
}

// Save serializes the summary (mixture encoding + codebook) in the compact
// binary format: a versioned header, the codebook as length-prefixed
// strings, and each cluster's sparse marginals as varint-delta indices plus
// raw float64 bits. The artifact is self-contained: ReadSummary restores
// estimation, visualization and the analytics applications without the
// original log. Use SaveJSON for the human-readable legacy format; both
// are auto-detected on read.
func (s *Summary) Save(w io.Writer) error {
	return core.WriteSummaryBinary(w, s.c.Mixture, s.book)
}

// SaveJSON serializes the summary in the original JSON layout — larger,
// but greppable. ReadSummary reads both formats.
func (s *Summary) SaveJSON(w io.Writer) error {
	return core.WriteSummary(w, s.c.Mixture, s.book)
}

// ReadSummary restores a summary saved with Save or SaveJSON (the format
// is auto-detected). The restored summary estimates, visualizes and runs
// the analytics applications; it has no delta basis, so Recompress against
// it falls back to a full compression.
func ReadSummary(r io.Reader) (*Summary, error) {
	m, book, err := core.ReadSummary(r)
	if err != nil {
		return nil, err
	}
	// Error against ground truth is unknown without the log; mark NaN.
	return &Summary{
		c:     &core.Compressed{Mixture: m, Err: math.NaN()},
		book:  book,
		epoch: workload.Epoch{Universe: m.Universe, TotalQueries: m.Total},
	}, nil
}

// WithError returns a copy of the summary whose Error is e. Summaries
// restored with ReadSummary carry Error NaN (the artifact holds no ground
// truth to evaluate against); a producer that reported its Reproduction
// Error out of band — logrd's X-Logr-Err response header, for instance —
// re-attaches it here so merge algebra over restored summaries can keep
// the error bookkeeping exact.
func (s *Summary) WithError(e float64) *Summary {
	cp := *s
	cc := *s.c
	cc.Err = e
	cp.c = &cc
	return &cp
}

// MergeSummariesOptions configure MergeSummaries.
type MergeSummariesOptions struct {
	// MaxComponents, when > 0, coalesces the merged mixture down to at
	// most this many components (see core.CoalesceMixture). 0 keeps the
	// lossless merge: one component per input cluster.
	MaxComponents int
}

// MergeSummaries combines summaries of disjoint sub-logs — typically the
// per-shard summaries of a hash-partitioned cluster — into one summary
// over the union of their feature universes. Unlike the segment algebra
// inside one workload, the inputs need not share a codebook: each
// summary's features are re-registered into a fresh union codebook (in
// input order, so the result is deterministic) and its mixture is
// remapped onto the union indexing before the ordinary Merge
// concatenation applies. All inputs must use the same feature scheme.
//
// The merge itself is lossless: remapping permutes feature counts without
// changing them, so the result's Reproduction Error is exactly the
// query-weighted combination of the inputs' errors — NaN if any input's
// error is unknown (ReadSummary without WithError). With MaxComponents
// set, the coalescing step adds its model-entropy bound to the error,
// making the reported Error an upper bound rather than exact.
func MergeSummaries(sums []*Summary, opts MergeSummariesOptions) (*Summary, error) {
	if len(sums) == 0 {
		return nil, errors.New("logr: MergeSummaries over no summaries")
	}
	if len(sums) == 1 && opts.MaxComponents <= 0 {
		return sums[0], nil
	}
	scheme := sums[0].book.Scheme()
	for i, s := range sums {
		if s == nil {
			return nil, fmt.Errorf("logr: MergeSummaries: summary %d is nil", i)
		}
		if s.book.Scheme() != scheme {
			return nil, fmt.Errorf("logr: MergeSummaries: summary %d uses a different feature scheme", i)
		}
	}
	// Pass 1: build the union codebook and each summary's remap. Features
	// are registered in input order, so identical inputs always produce an
	// identical union indexing.
	union := feature.NewCodebook(scheme)
	remaps := make([][]int, len(sums))
	for i, s := range sums {
		feats := s.book.Features()
		if len(feats) > s.c.Mixture.Universe {
			feats = feats[:s.c.Mixture.Universe]
		}
		remap := make([]int, len(feats))
		for j, f := range feats {
			remap[j] = union.Register(f)
		}
		remaps[i] = remap
	}
	// Pass 2: remap every mixture onto the final union universe, then fold
	// with Merge. Errors combine query-weighted.
	n := union.Size()
	merged, err := core.RemapMixture(sums[0].c.Mixture, remaps[0], n)
	if err != nil {
		return nil, err
	}
	total := sums[0].c.Mixture.Total
	werr := sums[0].c.Err * float64(total)
	for i, s := range sums[1:] {
		m, err := core.RemapMixture(s.c.Mixture, remaps[i+1], n)
		if err != nil {
			return nil, err
		}
		merged = merged.Merge(m)
		total += s.c.Mixture.Total
		werr += s.c.Err * float64(s.c.Mixture.Total)
	}
	mergedErr := math.NaN()
	if total > 0 {
		mergedErr = werr / float64(total)
	}
	if opts.MaxComponents > 0 && merged.K() > opts.MaxComponents {
		var bound float64
		merged, bound = core.CoalesceMixture(merged, opts.MaxComponents)
		mergedErr += bound
	}
	return &Summary{
		c:           &core.Compressed{Mixture: merged, Err: mergedErr},
		book:        union,
		epoch:       workload.Epoch{Universe: n, TotalQueries: total},
		incremental: len(sums) > 1,
	}, nil
}

// IndexSuggestion recommends indexing a column because predicates on it
// dominate the workload.
type IndexSuggestion = apps.IndexSuggestion

// SuggestIndexes runs the Section 2 index-selection analysis over the
// summary.
func (s *Summary) SuggestIndexes(minFrequency float64) []IndexSuggestion {
	return apps.SuggestIndexes(s.c.Mixture, s.book, minFrequency)
}

// ViewCandidate is a table pair frequently queried together.
type ViewCandidate = apps.ViewCandidate

// SuggestViews runs the Section 2 materialized-view analysis over the
// summary.
func (s *Summary) SuggestViews(minFrequency float64) []ViewCandidate {
	return apps.SuggestViews(s.c.Mixture, s.book, minFrequency)
}

// Correlation is a feature co-occurrence pattern the naive encoding
// misrepresents, ranked by corr_rank (Section 6.4); Query is its decoded
// SQL rendering.
type Correlation struct {
	Query string
	Score float64
}

// TopCorrelations mines the k patterns whose true frequency deviates most
// from the summary's independence assumption — the candidates LogR's
// hypothetical refinement stage would add.
func (s *Summary) TopCorrelations(w *Workload, k int) []Correlation {
	res := w.snapshot()
	e := core.NaiveEncode(res.Log)
	cands := core.CandidatePatterns(res.Log, e, 0.01, k)
	out := make([]Correlation, 0, len(cands))
	for _, c := range cands {
		sql := "(undecodable pattern)"
		if sel, err := s.book.Decode(c.Pattern); err == nil {
			sql = sel.SQL()
		}
		out = append(out, Correlation{Query: sql, Score: c.Score})
	}
	return out
}

// DriftReport quantifies how far a query window strays from the summarized
// baseline workload.
type DriftReport = apps.DriftReport

// CheckDrift scores a window of queries against the baseline summary
// (Section 2's online-monitoring application). The report's Score is the
// window's excess surprisal under the baseline (≈ 0 for baseline-like
// traffic); NoveltyRate is the fraction of queries the baseline cannot
// explain at all.
func (s *Summary) CheckDrift(window []Entry) DriftReport {
	det := apps.NewDriftDetector(s.c.Mixture)
	// encode the window against the baseline's universe WITHOUT registering
	// new features; queries carrying features the baseline never saw —
	// unknown, or registered only after the summary's epoch — count as
	// novel.
	l := core.NewLog(s.c.Mixture.Universe)
	unknownCount := 0
	for _, e := range window {
		c := e.Count
		if c <= 0 {
			c = 1
		}
		p, err := windowProbe(s.book, s.c.Mixture.Universe, e.SQL)
		if err != nil || len(p.unknown) > 0 || len(p.stale) > 0 {
			unknownCount += c
			continue
		}
		l.Add(p.vector(s.c.Mixture.Universe), c)
	}
	return det.Check(l, unknownCount)
}
