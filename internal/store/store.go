// Package store is the segmented workload store behind the public logr API:
// the refactor that turns the monolithic ever-growing workload into a
// long-running service's ingest path with retention and windowed
// analytics.
//
// Ingest lands in the shared incremental encoder (one codebook for the
// whole stream — feature indices are global, so vectors from any era remain
// comparable) and accumulates in an *active buffer*: the tail of the stream
// appended since the last seal. Seal — explicit, or automatic once the
// buffer holds Options.SealThreshold queries — freezes the buffer into an
// immutable Segment carrying its own epoch-stamped sub-log, materialized as
// the delta between the encoder snapshot at this seal and the previous one
// (core.Log.DeltaSince). A segment holds its sub-log encoded, as the bytes
// a checkpoint writes for it, and decodes it when a range is read; the
// first segment's sub-log is the snapshot log, so its compression is
// bit-identical to compressing the workload directly. Segments are never
// mutated afterwards. A seal clusters nothing.
//
// A range summary is the compression of its range: CompressRange(from, to,
// opts) is core.Compress(RangeLog(from, to), opts), the paper's summary of
// the log it is measured against. It depends only on the range's queries
// and the options, so the same range gives the same summary before and
// after retention, compaction of other segments, or a restart. The most
// recent result is cached while the range resolves to the same segments.
//
// Retention and compaction keep the store bounded: DropBefore releases the
// sub-logs of retired segments (the codebook is append-only by design and
// stays), and Compact merges runs of small adjacent segments
// (core.CompactionRuns) so a trickle of tiny seals cannot fragment range
// queries; the merges of one compaction pass run concurrently on the
// internal/parallel pool.
package store

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"logr/internal/binenc"
	"logr/internal/core"
	"logr/internal/feature"
	"logr/internal/obs"
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
	// and its vectors live in Epoch's universe.
	StartEpoch workload.Epoch `json:"-"`
	Epoch      workload.Epoch `json:"epoch"`
}

// Segment is one immutable sealed segment: its descriptor and its sub-log
// encoded by appendSubLog. Encoded, a sub-log takes a fraction of the
// memory it takes decoded, and a checkpoint copies it instead of
// re-encoding it.
type Segment struct {
	meta SegmentMeta
	sub  []byte
}

// newSegment encodes l as the sub-log of a segment with meta's seal span
// and epochs, and sizes meta from it.
func newSegment(meta SegmentMeta, l *core.Log) *Segment {
	meta.Queries, meta.Distinct = l.Total(), l.Distinct()
	return &Segment{meta: meta, sub: bytes.Clone(appendSubLog(nil, l))}
}

// log decodes the segment's sub-log. Its bytes were validated when they
// were encoded or restored, so the universe needs no bound here.
func (sg *Segment) log() *core.Log {
	r := binenc.NewReader(sg.sub)
	l, _, _ := readSubLog(r, math.MaxInt, true)
	if r.Err() != nil || r.Len() != 0 {
		panic(fmt.Sprintf("store: segment %d does not decode its own sub-log", sg.meta.ID))
	}
	return l
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

	// sealSeconds times each seal's sub-log cut; nil records nothing.
	sealSeconds *obs.Histogram

	// rangeCache holds the most recent CompressRange result and the
	// segments it compressed. A monitoring loop re-queries the same window;
	// segments are immutable, so the result stays valid while the range
	// still resolves to those segments (compaction and retention replace or
	// retire them).
	rangeCache struct {
		opts core.CompressOptions
		rng  []*Segment
		res  RangeResult
	}
}

// New prepares an empty segmented store.
func New(opts Options) *Store {
	return &Store{enc: workload.NewEncoder(opts.Encode), opts: opts}
}

// ErrQueryCap refuses a batch that would take a store past core.MaxCount
// queries over its life, the most a summary artifact can count.
var ErrQueryCap = fmt.Errorf("store: a store ingests at most 2^50 (%d) queries, the most a summary can count", core.MaxCount)

// addQueries returns total plus the batch's queries, counting a
// non-positive Count as one, or an ErrQueryCap error when that passes
// core.MaxCount.
func addQueries(total int, entries []workload.LogEntry) (int, error) {
	for _, e := range entries {
		c := max(e.Count, 1)
		if c > core.MaxCount-total {
			return total, fmt.Errorf("%w: the batch would take it past the cap", ErrQueryCap)
		}
		total += c
	}
	return total, nil
}

// Append feeds entries through the shared encoder, or refuses the whole
// batch with ErrQueryCap. With a SealThreshold the buffer is fed in
// threshold-sized slices and sealed as it fills, so one huge batch still
// lands as evenly sized segments.
func (s *Store) Append(entries []workload.LogEntry) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := addQueries(s.enc.IngestedQueries(), entries); err != nil {
		return err
	}
	if s.opts.SealThreshold <= 0 {
		s.enc.AddBatch(entries)
		return nil
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
	return nil
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

// IngestedQueries returns the number of queries fed to the store over its
// life, unparseable entries included: what the ingest cap counts.
func (s *Store) IngestedQueries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.enc.IngestedQueries()
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
	return seg.meta, true
}

//logr:holds(s.mu)
func (s *Store) sealLocked() *Segment {
	if s.enc.EncodedQueries() == s.boundaryEpoch.TotalQueries {
		return nil
	}
	start := time.Now()
	res := s.enc.Result()
	seg := newSegment(SegmentMeta{
		ID:         s.nextID,
		EndID:      s.nextID + 1,
		StartEpoch: s.boundaryEpoch,
		Epoch:      res.Epoch,
	}, res.Log.DeltaSince(s.boundary))
	s.segs = append(s.segs, seg)
	s.nextID++
	s.boundary = res.Counts()
	s.boundaryEpoch = res.Epoch
	s.sealSeconds.RecordSince(start)
	if s.opts.CompactMinQueries > 0 {
		s.compactLocked(s.opts.CompactMinQueries)
	}
	return seg
}

// Segments lists the live sealed segments in order.
func (s *Store) Segments() []SegmentMeta {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentMeta, len(s.segs))
	for i, sg := range s.segs {
		out[i] = sg.meta
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
// releasing its sub-log, and returns the number of segments
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
	return eliminated
}

// mergeSegments materializes the compacted segment for one run: the
// sub-logs are lifted to the run's final universe and merged with
// deduplication (a distinct vector recurring across the run folds its
// multiplicities).
func mergeSegments(run []*Segment) *Segment {
	last := run[len(run)-1]
	return newSegment(SegmentMeta{
		ID:         run[0].meta.ID,
		EndID:      last.meta.EndID,
		StartEpoch: run[0].meta.StartEpoch,
		Epoch:      last.meta.Epoch,
	}, rangeLog(run))
}

// rangeLocked resolves the seal-id range [from, to) to the live segments
// that span it exactly.
//
//logr:holds(s.mu)
func (s *Store) rangeLocked(from, to int) ([]*Segment, error) {
	if from >= to {
		return nil, fmt.Errorf("store: empty segment range [%d, %d)", from, to)
	}
	if len(s.segs) == 0 {
		return nil, fmt.Errorf("store: no sealed segments (Seal the active buffer first)")
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
		return nil, fmt.Errorf("store: segment range [%d, %d) does not align with live segment boundaries (live seals span [%d, %d); compaction merges boundaries and DropBefore retires them)", from, to, first, last)
	}
	return s.segs[lo : hi+1], nil
}

// RangeResult is a range summary and the range's end epoch.
type RangeResult struct {
	Compressed *core.Compressed
	// Epoch is the range's end epoch: the summary's universe snapshot.
	Epoch workload.Epoch
}

// CompressRange summarizes the contiguous sealed segments spanning seal ids
// [from, to): it is core.Compress(RangeLog(from, to), opts), so a
// single-segment store's range is bit-identical to direct compression.
// The result is cached in one slot keyed by the options and the range's
// segments; compression runs outside the store lock.
func (s *Store) CompressRange(from, to int, opts core.CompressOptions) (RangeResult, error) {
	s.mu.Lock()
	rng, err := s.rangeLocked(from, to)
	if err != nil {
		s.mu.Unlock()
		return RangeResult{}, err
	}
	if c := &s.rangeCache; c.opts == opts && slices.Equal(c.rng, rng) {
		res := c.res
		s.mu.Unlock()
		return res, nil
	}
	rng = slices.Clone(rng)
	s.mu.Unlock()
	c, err := core.Compress(rangeLog(rng), opts)
	if err != nil {
		return RangeResult{}, err
	}
	res := RangeResult{Compressed: c, Epoch: rng[len(rng)-1].meta.Epoch}
	s.mu.Lock()
	s.rangeCache.opts, s.rangeCache.rng, s.rangeCache.res = opts, rng, res
	s.mu.Unlock()
	return res, nil
}

// RangeLog materializes the deduplicated union sub-log of the sealed
// segments spanning [from, to), over the range's end universe — the log a
// range summary compresses, and the window input for segment-level drift
// scoring.
func (s *Store) RangeLog(from, to int) (*core.Log, workload.Epoch, error) {
	s.mu.Lock()
	rng, err := s.rangeLocked(from, to)
	s.mu.Unlock()
	if err != nil {
		return nil, workload.Epoch{}, err
	}
	return rangeLog(rng), rng[len(rng)-1].meta.Epoch, nil
}

// rangeLog decodes the range's sub-logs and merges them over the range's
// end universe. The first segment's log, decoded afresh, is the one the
// others merge into.
func rangeLog(rng []*Segment) *core.Log {
	u := rng[len(rng)-1].meta.Epoch.Universe
	var l *core.Log
	for _, sg := range rng {
		g := sg.log()
		if g.Universe() < u {
			g = g.Grow(u)
		}
		if l == nil {
			l = g
		} else {
			l.Merge(g)
		}
	}
	return l
}
