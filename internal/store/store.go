// Package store is the segmented workload store behind the public logr API:
// the refactor that turns the monolithic ever-growing workload into a
// long-running service's ingest path with bounded per-summary work,
// retention and windowed analytics.
//
// Ingest lands in the shared incremental encoder (one codebook for the
// whole stream — feature indices are global, so vectors from any era remain
// comparable) and accumulates in an *active buffer*: the tail of the stream
// appended since the last seal. Seal — explicit, or automatic once the
// buffer holds Options.SealThreshold queries — freezes the buffer into an
// immutable Segment carrying its own epoch-stamped sub-log, materialized as
// the delta between the encoder snapshot at this seal and the previous one
// (core.Log.DeltaSince). Segments are never mutated afterwards; the first
// segment shares the snapshot log itself, which keeps its compression
// bit-identical to compressing the workload directly.
//
// Each segment owns a lazily-built summary: core.Compress over the
// segment's sub-log, warm-started from the previous live segment's
// component centroids the way Recompress warm-starts a delta (for 0/1
// vectors a component's marginal vector is its centroid). Summaries chain —
// building segment i's summary ensures its predecessors' first — and once
// built never rebuild under the same options, so range queries over cached
// segments never re-cluster, and every summary in a chain was seeded from
// its predecessor's summary as it stood at build time (what keeps
// MergeAligned's label identity coherent). Absent retention the chain is a
// deterministic function of the segment structure and options; DropBefore
// and Compact move the chain's start, so summaries first built *after*
// them may seed differently than they would have before — each is still a
// valid compression of its segment, and ranges built in one configuration
// remain internally consistent.
//
// CompressRange derives the summary of any contiguous sealed range from the
// per-segment summaries with the summary algebra: Mixture.Merge
// concatenates them into one mixture over the union universe (lossless — the merged Reproduction Error is exactly the weighted
// combination of the per-segment errors), and core.Consolidate cuts the
// merge tree over the union's components: the cut at the component budget,
// or with no budget the smallest cut within the error target. If
// consolidation drifts the error more than
// RangeOptions.MaxErrorGrowth above the lossless merge, CompressRange falls
// back to a full re-cluster of the concatenated range — the same
// error-drift contract as core.Recompress.
//
// Retention and compaction keep the store bounded: DropBefore releases the
// sub-logs and summaries of retired segments (the codebook is append-only
// by design and stays), and Compact merges runs of small adjacent segments
// (core.CompactionRuns) so a trickle of tiny seals cannot fragment range
// queries; the merges of one compaction pass run concurrently on the
// internal/parallel pool.
package store

import (
	"fmt"
	"sync"

	"logr/internal/core"
	"logr/internal/feature"
	"logr/internal/parallel"
	"logr/internal/workload"
)

// Options configure a segmented store.
type Options struct {
	// SealThreshold automatically seals the active buffer into a segment
	// once it holds at least this many encoded queries (duplicates
	// included). 0 disables auto-sealing; segments are then cut only by
	// explicit Seal calls. Automatic boundaries land between input entries,
	// so a multiplicity larger than the threshold still stays in one
	// segment.
	SealThreshold int
	// CompactMinQueries, when > 0, compacts runs of adjacent segments
	// smaller than this after every seal (see Compact).
	CompactMinQueries int
	// Encode configures the shared encoder.
	Encode workload.EncodeOptions
}

// SegmentMeta describes one sealed segment. It is also an element of
// logrd's GET /segments body, so the JSON tags are wire names.
type SegmentMeta struct {
	// ID is the segment's first seal number; EndID is one past its last.
	// Fresh segments cover exactly one seal (EndID == ID+1); compaction
	// widens the span but never renumbers, so IDs are stable range
	// coordinates for CompressRange, DriftBetween and DropBefore across
	// the store's life.
	ID    int `json:"id"`
	EndID int `json:"end_id"`
	// Queries and Distinct size the segment's own sub-log.
	Queries  int `json:"queries"`
	Distinct int `json:"distinct"`
	// StartEpoch and Epoch are the encoder epochs bracketing the segment:
	// it holds exactly the queries ingested after StartEpoch up to Epoch,
	// and its vectors live in Epoch's universe, the one its summary
	// resolves probes against.
	StartEpoch workload.Epoch `json:"-"`
	Epoch      workload.Epoch `json:"epoch"`
	// Summarized reports whether the lazy per-segment summary is built.
	Summarized bool `json:"summarized"`
}

// Segment is one immutable sealed segment: its sub-log plus the lazily
// built, cached summary.
type Segment struct {
	meta SegmentMeta
	log  *core.Log

	mu     sync.Mutex
	sumKey string
	sum    *core.Compressed
}

// Meta returns the segment's descriptor (Summarized reflects the cache at
// call time).
func (sg *Segment) Meta() SegmentMeta {
	m := sg.meta
	sg.mu.Lock()
	m.Summarized = sg.sum != nil
	sg.mu.Unlock()
	return m
}

// Log returns the segment's sub-log (read-only).
func (sg *Segment) Log() *core.Log { return sg.log }

// summaryKey folds the options that shape a summary (not Parallelism, which
// only changes throughput) into the cache key.
func summaryKey(opts core.CompressOptions) string {
	return fmt.Sprintf("k%d|m%d|s%d|t%g|x%d", opts.K, opts.Method, opts.Seed, opts.TargetError, opts.MaxK)
}

// cached returns the segment's summary for the given cache key, or nil.
func (sg *Segment) cached(key string) *core.Compressed {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.sum != nil && sg.sumKey == key {
		return sg.sum
	}
	return nil
}

// summary returns the segment's cached summary for the given options,
// building it if needed. warm lazily supplies the previous segment's
// component centroids (grown to this segment's universe) for the k-means
// warm start; it is only invoked on a cache miss, so cached chains never
// pay the centroid materialization.
func (sg *Segment) summary(opts core.CompressOptions, key string, warm func() [][]float64) (*core.Compressed, error) {
	sg.mu.Lock()
	defer sg.mu.Unlock()
	if sg.sum != nil && sg.sumKey == key {
		return sg.sum, nil
	}
	o := opts
	o.WarmCentroids = warm()
	// Serializing concurrent cache fills under sg.mu is the point: the
	// segment is sealed (ingest never takes this lock), and two racing
	// readers would otherwise both pay the clustering.
	//logr:allow(lockdiscipline) per-segment cache fill; sealed segments are never on the ingest path
	c, err := core.Compress(sg.log, o)
	if err != nil {
		return nil, err
	}
	sg.sum, sg.sumKey = c, key
	return c, nil
}

// warmCentroids extracts a summary's component centroids grown to the
// given universe, or nil when the shape cannot seed a K-cluster run.
func warmCentroids(prev *core.Compressed, universe, k int) [][]float64 {
	if prev == nil || k <= 0 || prev.Mixture.K() != k {
		return nil
	}
	cents := make([][]float64, k)
	for i, c := range prev.Mixture.Components {
		cents[i] = c.Dense(universe)
	}
	return cents
}

// Store is the segmented workload store. All methods are safe for
// concurrent use.
type Store struct {
	mu   sync.Mutex
	enc  *workload.Encoder
	opts Options

	segs   []*Segment // sealed segments, ascending ID, contiguous spans
	nextID int
	// boundary is the encoder state at the last seal: the per-distinct
	// multiplicities and epoch the next segment's delta is taken against.
	boundary      []int
	boundaryEpoch workload.Epoch

	// rangeCache holds the most recent CompressRange result. A monitoring
	// loop re-queries the same window between seals; segments are immutable,
	// so the derived range summary is too — until the segment structure
	// changes (seal, compaction, retention), which invalidates the slot.
	rangeCache struct {
		key      string
		from, to int
		res      RangeResult
		valid    bool
	}
}

// New prepares an empty segmented store.
func New(opts Options) *Store {
	return &Store{enc: workload.NewEncoder(opts.Encode), opts: opts}
}

// Append feeds entries through the shared encoder. With a SealThreshold the
// buffer is fed in threshold-sized slices and sealed as it fills, so one
// huge batch still lands as evenly sized segments.
func (s *Store) Append(entries []workload.LogEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.opts.SealThreshold <= 0 {
		s.enc.AddBatch(entries)
		return
	}
	for len(entries) > 0 {
		// EncodedQueries is a counter, so fine-grained streaming appends
		// never rebuild a snapshot just to check the threshold
		active := s.enc.EncodedQueries() - s.boundaryEpoch.TotalQueries
		if active >= s.opts.SealThreshold {
			s.sealLocked()
			continue
		}
		room := s.opts.SealThreshold - active
		take, sum := 0, 0
		for take < len(entries) && sum < room {
			c := entries[take].Count
			if c <= 0 {
				c = 1
			}
			sum += c
			take++
		}
		s.enc.AddBatch(entries[:take])
		entries = entries[take:]
	}
	if s.enc.EncodedQueries()-s.boundaryEpoch.TotalQueries >= s.opts.SealThreshold {
		s.sealLocked()
	}
}

// Snapshot returns the encoder's current snapshot over the whole stream
// (sealed segments and active buffer together) — what the unsegmented
// compression and exact-count paths consume.
func (s *Store) Snapshot() workload.EncodeResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Result()
}

// Book returns the stream's shared codebook without materializing a
// snapshot (the codebook instance never changes, only grows).
func (s *Store) Book() *feature.Codebook {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.Book()
}

// ActiveQueries returns the number of encoded queries in the active
// (unsealed) buffer.
func (s *Store) ActiveQueries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.EncodedQueries() - s.boundaryEpoch.TotalQueries
}

// TotalQueries returns the number of encoded queries in the whole stream
// (sealed segments and active buffer, duplicates included) — the running
// Log.Total() of the next snapshot, served from the encoder's O(1) counter
// without materializing a snapshot. The ingest hot path's answer to "how
// many queries so far".
func (s *Store) TotalQueries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.EncodedQueries()
}

// Seal freezes the active buffer into a new immutable segment and returns
// its descriptor. An empty buffer seals nothing and reports ok == false.
func (s *Store) Seal() (SegmentMeta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seg := s.sealLocked()
	if seg == nil {
		return SegmentMeta{}, false
	}
	return seg.Meta(), true
}

//logr:holds(s.mu)
func (s *Store) sealLocked() *Segment {
	if s.enc.EncodedQueries() == s.boundaryEpoch.TotalQueries {
		return nil
	}
	res := s.enc.Result()
	log := res.Log.DeltaSince(s.boundary)
	seg := &Segment{
		meta: SegmentMeta{
			ID:         s.nextID,
			EndID:      s.nextID + 1,
			StartEpoch: s.boundaryEpoch,
			Epoch:      res.Epoch,
			Queries:    log.Total(),
			Distinct:   log.Distinct(),
		},
		log: log,
	}
	s.segs = append(s.segs, seg)
	s.nextID++
	s.boundary = res.Counts()
	s.boundaryEpoch = res.Epoch
	s.rangeCache.valid = false
	if s.opts.CompactMinQueries > 0 {
		s.compactLocked(s.opts.CompactMinQueries)
	}
	return seg
}

// Segments lists the live sealed segments in order.
func (s *Store) Segments() []SegmentMeta {
	s.mu.Lock()
	segs := append([]*Segment(nil), s.segs...)
	s.mu.Unlock()
	out := make([]SegmentMeta, len(segs))
	for i, sg := range segs {
		out[i] = sg.Meta()
	}
	return out
}

// NextID returns the seal number the next Seal will assign — the exclusive
// upper bound addressing "everything sealed so far" in CompressRange.
func (s *Store) NextID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextID
}

// DropBefore retires every segment whose span lies entirely before seal id,
// releasing its sub-log and summary, and returns the number of segments
// dropped. The shared codebook is append-only by design and is retained;
// later segments and the active buffer are untouched.
func (s *Store) DropBefore(id int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for n < len(s.segs) && s.segs[n].meta.EndID <= id {
		n++
	}
	s.segs = append([]*Segment(nil), s.segs[n:]...)
	if n > 0 {
		s.rangeCache.valid = false
	}
	return n
}

// Compact merges runs of adjacent segments smaller than minQueries into
// single segments (per core.CompactionRuns), returning the number of
// segments eliminated. Merged segments keep the run's combined seal span
// and drop their cached summaries (rebuilt lazily). Independent runs merge
// concurrently on the worker pool.
func (s *Store) Compact(minQueries int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked(minQueries)
}

//logr:holds(s.mu)
func (s *Store) compactLocked(minQueries int) int {
	sizes := make([]int, len(s.segs))
	for i, sg := range s.segs {
		sizes[i] = sg.meta.Queries
	}
	runs := core.CompactionRuns(sizes, minQueries)
	if len(runs) == 0 {
		return 0
	}
	merged := make([]*Segment, len(runs))
	tasks := make([]func(), len(runs))
	for ri, run := range runs {
		ri, run := ri, run
		tasks[ri] = func() { merged[ri] = mergeSegments(s.segs[run[0]:run[1]]) }
	}
	parallel.Do(0, tasks...)
	var out []*Segment
	prev := 0
	eliminated := 0
	for ri, run := range runs {
		out = append(out, s.segs[prev:run[0]]...)
		out = append(out, merged[ri])
		eliminated += run[1] - run[0] - 1
		prev = run[1]
	}
	out = append(out, s.segs[prev:]...)
	s.segs = out
	s.rangeCache.valid = false
	return eliminated
}

// mergeSegments materializes the compacted segment for one run: the
// sub-logs are lifted to the run's final universe and merged with
// deduplication (a distinct vector recurring across the run folds its
// multiplicities).
func mergeSegments(run []*Segment) *Segment {
	last := run[len(run)-1]
	l := rangeLog(run)
	return &Segment{
		meta: SegmentMeta{
			ID:         run[0].meta.ID,
			EndID:      last.meta.EndID,
			StartEpoch: run[0].meta.StartEpoch,
			Epoch:      last.meta.Epoch,
			Queries:    l.Total(),
			Distinct:   l.Distinct(),
		},
		log: l,
	}
}

// chainLocked resolves the seal-id range [from, to) against the live
// segments: it returns every live segment up to the range end (the summary
// warm-start chain) and the count of trailing chain segments that form the
// requested range.
//
//logr:holds(s.mu)
func (s *Store) chainLocked(from, to int) (chain []*Segment, width int, err error) {
	if from >= to {
		return nil, 0, fmt.Errorf("store: empty segment range [%d, %d)", from, to)
	}
	if len(s.segs) == 0 {
		return nil, 0, fmt.Errorf("store: no sealed segments (Seal the active buffer first)")
	}
	lo, hi := -1, -1
	for i, sg := range s.segs {
		if sg.meta.ID == from {
			lo = i
		}
		if sg.meta.EndID == to {
			hi = i
		}
	}
	if lo < 0 || hi < 0 || hi < lo {
		first, last := s.segs[0].meta.ID, s.segs[len(s.segs)-1].meta.EndID
		return nil, 0, fmt.Errorf("store: segment range [%d, %d) does not align with live segment boundaries (live seals span [%d, %d); compaction merges boundaries and DropBefore retires them)", from, to, first, last)
	}
	return s.segs[:hi+1], hi - lo + 1, nil
}

// RangeOptions tune CompressRange beyond the per-segment compression
// options.
type RangeOptions struct {
	// MaxErrorGrowth is the allowed relative growth of the consolidated
	// range summary's Reproduction Error over the lossless merge's before
	// CompressRange abandons the algebraic path and fully re-clusters the
	// concatenated range. 0 means the default (core.DefaultMaxErrorGrowth);
	// negative disables the fallback.
	MaxErrorGrowth float64
}

// RangeResult is a range summary plus how it was produced.
type RangeResult struct {
	Compressed *core.Compressed
	// Epoch is the range's end epoch: the summary's universe snapshot.
	Epoch workload.Epoch
	// Merged reports the algebraic path: per-segment summaries merged (and
	// possibly consolidated) without re-clustering. False means a single
	// segment's summary was returned directly or the error-drift fallback
	// re-clustered the range.
	Merged bool
}

// CompressRange summarizes the contiguous sealed segments spanning seal ids
// [from, to). Per-segment summaries are built (and cached) on demand, then
// merged with the summary algebra; when opts.K > 0 the merged mixture is
// consolidated down to K components, and when opts.K == 0 with a
// TargetError it is consolidated to the smallest cut of its merge tree
// whose exact error is within target (the lossless merge when no cut is).
// A single-segment range returns the segment's own summary, making the
// one-segment store bit-identical to direct compression.
func (s *Store) CompressRange(from, to int, opts core.CompressOptions, ropts RangeOptions) (RangeResult, error) {
	key := summaryKey(opts)
	// the drift threshold decides merge vs re-cluster, so it is part of the
	// cached result's identity
	cacheKey := fmt.Sprintf("%s|g%g", key, ropts.MaxErrorGrowth)
	s.mu.Lock()
	if c := &s.rangeCache; c.valid && c.key == cacheKey && c.from == from && c.to == to {
		res := c.res
		s.mu.Unlock()
		return res, nil
	}
	chain, width, err := s.chainLocked(from, to)
	s.mu.Unlock()
	if err != nil {
		return RangeResult{}, err
	}
	sums := make([]*core.Compressed, len(chain))
	var prev *core.Compressed
	for i, sg := range chain {
		prevSum := prev
		sums[i], err = sg.summary(opts, key, func() [][]float64 {
			return warmCentroids(prevSum, sg.log.Universe(), opts.K)
		})
		if err != nil {
			return RangeResult{}, err
		}
		prev = sums[i]
	}
	rng := chain[len(chain)-width:]
	rsums := sums[len(chain)-width:]
	epoch := rng[len(rng)-1].meta.Epoch
	if width == 1 {
		return RangeResult{Compressed: rsums[0], Epoch: epoch}, nil
	}
	union, err := core.MergeRange(rsums, opts.Parallelism)
	if err != nil {
		return RangeResult{}, err
	}
	// Consolidate to the component budget or the error target: label-aligned
	// union when the summary chain's warm-started k-means makes component i
	// of every segment the same evolving cluster (scoring-free, one linear
	// pass), a cut of the merge tree over the union's components otherwise.
	merged, aligned := union, false
	if opts.K > 0 && union.Mixture.K() > opts.K && opts.Method == core.KMeansMethod {
		merged, aligned = core.MergeAligned(rsums, opts.K, opts.Parallelism)
	}
	if !aligned && (opts.K > 0 || opts.TargetError > 0) {
		merged = core.Consolidate(union, opts)
	}
	growth := ropts.MaxErrorGrowth
	if growth == 0 {
		growth = core.DefaultMaxErrorGrowth
	}
	res := RangeResult{Compressed: merged, Epoch: epoch, Merged: true}
	if growth >= 0 && merged.Err > union.Err*(1+growth) {
		// The consolidated algebra drifted too far from the lossless merge:
		// the range carries structure the per-segment partitions cannot
		// express in the component budget. Re-cluster the concatenated
		// range from scratch, as Recompress does on drift.
		full, err := core.Compress(rangeLog(rng), opts)
		if err != nil {
			return RangeResult{}, err
		}
		res = RangeResult{Compressed: full, Epoch: epoch}
	}
	s.mu.Lock()
	// cache only if the segment structure is unchanged since we resolved
	// the range (no seal/compact/drop raced the build)
	if chain2, width2, err2 := s.chainLocked(from, to); err2 == nil && width2 == width && len(chain2) == len(chain) && chain2[len(chain2)-1] == chain[len(chain)-1] {
		s.rangeCache.key, s.rangeCache.from, s.rangeCache.to = cacheKey, from, to
		s.rangeCache.res = res
		s.rangeCache.valid = true
	}
	s.mu.Unlock()
	return res, nil
}

// RangeLog materializes the deduplicated union sub-log of the sealed
// segments spanning [from, to), over the range's end universe — the ground
// truth a range summary summarizes, and the window input for segment-level
// drift scoring.
func (s *Store) RangeLog(from, to int) (*core.Log, workload.Epoch, error) {
	s.mu.Lock()
	chain, width, err := s.chainLocked(from, to)
	s.mu.Unlock()
	if err != nil {
		return nil, workload.Epoch{}, err
	}
	rng := chain[len(chain)-width:]
	return rangeLog(rng), rng[len(rng)-1].meta.Epoch, nil
}

func rangeLog(rng []*Segment) *core.Log {
	if len(rng) == 1 {
		return rng[0].log
	}
	u := rng[len(rng)-1].meta.Epoch.Universe
	l := core.NewLog(u)
	for _, sg := range rng {
		g := sg.log
		if g.Universe() < u {
			g = g.Grow(u)
		}
		l.Merge(g)
	}
	return l
}
