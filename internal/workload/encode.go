package workload

import (
	"logr/internal/core"
	"logr/internal/feature"
	"logr/internal/parallel"
	"logr/internal/regularize"
	"logr/internal/sqlparser"
)

// PipelineStats are the counters Table 1 reports, collected while encoding
// a raw log. It is also the statistics part of logrd's GET /stats body, so
// the JSON tags are wire names.
type PipelineStats struct {
	// TotalQueries counts raw entries, including duplicates and noise.
	TotalQueries int `json:"-"`
	// Queries counts entries that parsed as SELECT (incl. duplicates).
	Queries int `json:"queries"`
	// DistinctQueries counts distinct raw SQL strings (constants intact).
	DistinctQueries int `json:"distinct_queries"`
	// DistinctNoConst counts distinct queries after constant removal.
	DistinctNoConst int `json:"distinct_no_const"`
	// DistinctConjunctive counts post-scrub distinct queries already in
	// conjunctive form.
	DistinctConjunctive int `json:"distinct_conjunctive"`
	// DistinctRewritable counts post-scrub distinct queries expressible as
	// a UNION of conjunctive queries within the rewrite budget.
	DistinctRewritable int `json:"distinct_rewritable"`
	// MaxMultiplicity is the largest post-scrub multiplicity.
	MaxMultiplicity int `json:"max_multiplicity"`
	// Features counts distinct features before constant removal.
	Features int `json:"features"`
	// FeaturesNoConst counts distinct features after constant removal.
	FeaturesNoConst int `json:"features_no_const"`
	// AvgFeaturesPerQuery averages the post-scrub feature count over all
	// encoded queries.
	AvgFeaturesPerQuery float64 `json:"avg_features_per_query"`
	// StoredProcedures counts CALL/EXEC-style entries the parser rejected
	// as unsupported statements.
	StoredProcedures int `json:"stored_procedures"`
	// Unparseable counts entries that failed to lex/parse at all.
	Unparseable int `json:"unparseable"`
}

// EncodeOptions configure the raw-SQL → encoded-log pipeline.
type EncodeOptions struct {
	// Scheme selects the feature-extraction scheme (default Aligon).
	Scheme feature.Scheme
	// KeepConstants disables constant scrubbing (Table 1's "with constants"
	// feature counts are collected either way; this switches what the
	// returned log encodes).
	KeepConstants bool
	// MaxDisjuncts bounds conjunctive rewriting (default 16).
	MaxDisjuncts int
	// Parallelism bounds the workers AddBatch uses to parse, regularize and
	// feature-extract new SQL (≤ 0 = all cores). The codebook and all
	// statistics are identical at any parallelism.
	Parallelism int
}

// Epoch is the version of an encode snapshot. The pipeline is append-only
// — the codebook only grows and multiplicities only increase — so every
// field is monotone non-decreasing across snapshots of one Encoder, and an
// Epoch totally orders the snapshots it came from. Summaries carry the
// epoch of the snapshot they compressed, which is what lets a probe against
// an older summary distinguish "feature registered after my snapshot"
// (index ≥ Universe: unseen, probability 0) from "feature never seen".
type Epoch struct {
	// Universe is the codebook size at the snapshot: vectors of the
	// snapshot's log are over exactly this many features; features with a
	// codebook index ≥ Universe were registered later and are unseen by a
	// summary of the snapshot.
	Universe int `json:"universe"`
	// TotalQueries is the number of encoded queries at the snapshot,
	// duplicates included.
	TotalQueries int `json:"total_queries"`
	// Distinct is the number of distinct query vectors at the snapshot.
	// Snapshots keep distinct vectors in first-appearance order, so a later
	// snapshot's first Distinct vectors are this snapshot's vectors (over a
	// possibly larger universe) — the alignment delta extraction relies on.
	Distinct int `json:"-"`
}

// EncodeResult bundles the encoded log with its codebook, statistics and
// the snapshot's epoch.
type EncodeResult struct {
	Log   *core.Log
	Book  *feature.Codebook
	Stats PipelineStats
	Epoch Epoch
}

// Counts returns the snapshot's per-distinct-vector multiplicities, aligned
// with the Log's distinct order. This is the boundary record the segmented
// store keeps at every seal: a later snapshot's DeltaSince(counts) is
// exactly the sub-log ingested after this one, because snapshots of one
// Encoder share the codebook and keep distinct vectors in first-appearance
// order.
func (r EncodeResult) Counts() []int {
	counts := make([]int, r.Log.Distinct())
	for i := range counts {
		counts[i] = r.Log.Multiplicity(i)
	}
	return counts
}

// Encoder runs the parse → regularize → feature-extraction pipeline
// incrementally: entries can be added in batches (a live monitoring stream,
// a growing log file) and a snapshot taken at any point. Each distinct SQL
// string is parsed at most once regardless of multiplicity.
//
// The pipeline is sharded: AddBatch parses and regularizes distinct new SQL
// on parallel workers (stateless work), then merges in input order on one
// goroutine, so codebook feature indices are assigned exactly as a serial
// Add loop would assign them. An Encoder is not itself safe for concurrent
// use; the public logr.Workload wrapper adds the locking.
type Encoder struct {
	opts          EncodeOptions
	book          *feature.Codebook
	withConstBook *feature.Codebook
	scrubOpts     regularize.Options
	keepOpts      regularize.Options

	stats PipelineStats
	// The admission tables are append-only: a distinct SQL string, a
	// canonical query and a feature are each added once, in input order,
	// and never rewritten — only canonical.count moves afterwards. That is
	// what lets state.go serialize "everything admitted since a StateMark"
	// as four slice expressions.
	raws     []string          // distinct raw SQL, in admission order
	refs     map[string]rawRef // raw SQL → its cached classification
	canon    []canonical       // canonical queries, in admission order
	canonIdx map[string]uint32 // canonical key → index into canon
	featSum  int
	encodedN int
	snapshot *EncodeResult // cached Result; nil after any mutation

	// per-window scratch reused across addBatch calls so the steady state
	// (every SQL string already seen) allocates nothing: the job list and
	// dedup index of newly-seen SQL, and the parallel workers' result
	// slots. Cleared after each window — results hold parsed ASTs that
	// must not outlive the merge.
	scratchJobs []string
	scratchIdx  map[string]int
	scratchRes  []prepared
}

// rawRef caches a distinct SQL string's parse outcome so repeats never
// reparse: one of the two failure kinds, or refCanon plus the index of the
// statement's canonical query. The same number is the statement's record
// in the serialized state.
type rawRef uint32

const (
	refStoredProc rawRef = iota
	refUnparseable
	refCanon // refCanon+i references canon[i]
)

// failKind is a prepared statement's parse outcome.
type failKind uint8

const (
	failNone failKind = iota
	failStoredProc
	failUnparseable
)

// prepared is the outcome of the stateless (parallelizable) half of the
// pipeline for one distinct SQL string: parse + both regularizations.
// Feature extraction against the shared codebook happens later, in input
// order.
type prepared struct {
	fail        failKind
	withConst   []*sqlparser.Select // blocks with constants kept
	blocks      []*sqlparser.Select // scrubbed conjunctive blocks
	conjunctive bool
	rewritable  bool
	canonKey    string
}

type canonical struct {
	key         string
	indices     []int
	count       int
	conjunctive bool
	rewritable  bool
}

// NewEncoder prepares an empty pipeline.
func NewEncoder(opts EncodeOptions) *Encoder {
	if opts.MaxDisjuncts <= 0 {
		opts.MaxDisjuncts = 16
	}
	return &Encoder{
		opts:          opts,
		book:          feature.NewCodebook(opts.Scheme),
		withConstBook: feature.NewCodebook(opts.Scheme),
		scrubOpts:     regularize.Options{ScrubConstants: !opts.KeepConstants, MaxDisjuncts: opts.MaxDisjuncts},
		keepOpts:      regularize.Options{ScrubConstants: false, MaxDisjuncts: opts.MaxDisjuncts},
		refs:          map[string]rawRef{},
		canonIdx:      map[string]uint32{},
		scratchIdx:    map[string]int{},
	}
}

// Add feeds one entry through the pipeline.
//
//logr:noalloc
func (e *Encoder) Add(entry LogEntry) {
	count := entry.Count
	if count <= 0 {
		count = 1
	}
	e.snapshot = nil
	e.stats.TotalQueries += count
	if ref, seen := e.refs[entry.SQL]; seen {
		e.replay(ref, count)
		return
	}
	e.admit(entry.SQL, e.prepare(entry.SQL), count)
}

// addBatchWindow is the window size AddBatch shards a batch into: large
// enough to keep the parse workers fed, small enough that the prepared
// ASTs held alive before each merge stay bounded regardless of batch size.
const addBatchWindow = 8192

// AddBatch feeds a batch of entries through the pipeline. The stateless
// half — parse + regularize of each distinct new SQL string — runs on up to
// EncodeOptions.Parallelism workers; the merge (codebook extraction, stats,
// multiplicities) then runs in input order, so the resulting codebook, log
// and statistics are byte-identical to a serial Add loop over the same
// entries, at any parallelism. Batches are processed in fixed windows so
// peak memory is O(window), not O(batch).
func (e *Encoder) AddBatch(entries []LogEntry) {
	for len(entries) > addBatchWindow {
		e.addBatch(entries[:addBatchWindow])
		entries = entries[addBatchWindow:]
	}
	e.addBatch(entries)
}

//logr:noalloc
func (e *Encoder) addBatch(entries []LogEntry) {
	if len(entries) == 0 {
		return
	}
	e.snapshot = nil
	// distinct new SQL strings, in first-appearance order; the job list,
	// dedup index and result slots are encoder-owned scratch — the steady
	// state, where every string is already in refs, touches none of them
	// and allocates nothing
	jobs := e.scratchJobs[:0]
	jobIdx := e.scratchIdx
	for _, en := range entries {
		if _, seen := e.refs[en.SQL]; seen {
			continue
		}
		if _, dup := jobIdx[en.SQL]; dup {
			continue
		}
		jobIdx[en.SQL] = len(jobs) //logr:allow(noalloc) admission of a new distinct SQL string; steady state never reaches this
		jobs = append(jobs, en.SQL)
	}
	var results []prepared
	if len(jobs) > 0 {
		if cap(e.scratchRes) < len(jobs) {
			e.scratchRes = make([]prepared, len(jobs)) //logr:allow(noalloc) result-slot capacity growth, amortizes to zero
		}
		results = e.scratchRes[:len(jobs)]
		parallel.For(len(jobs), e.opts.Parallelism, func(i int) { //logr:allow(noalloc) parse fan-out runs only when the window carries new distinct SQL
			results[i] = e.prepare(jobs[i])
		})
	}
	for _, en := range entries {
		count := en.Count
		if count <= 0 {
			count = 1
		}
		e.stats.TotalQueries += count
		if ref, seen := e.refs[en.SQL]; seen {
			e.replay(ref, count)
			continue
		}
		e.admit(en.SQL, results[jobIdx[en.SQL]], count)
	}
	if len(jobs) > 0 {
		// drop AST references so the scratch does not pin parsed trees, and
		// keep the (string-header) job list and index for the next window
		clear(results)
		clear(jobIdx)
		clear(jobs)
		e.scratchRes = results[:0]
	}
	e.scratchJobs = jobs[:0]
}

// prepare runs the stateless half of the pipeline for one SQL string. It
// touches no Encoder state besides the immutable options, so it is safe to
// call from parallel workers.
func (e *Encoder) prepare(sql string) prepared {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		if _, ok := err.(*sqlparser.UnsupportedError); ok {
			return prepared{fail: failStoredProc}
		}
		return prepared{fail: failUnparseable}
	}
	withConst := regularize.Regularize(stmt, e.keepOpts)
	r := regularize.Regularize(stmt, e.scrubOpts)
	return prepared{
		withConst:   withConst.Blocks,
		blocks:      r.Blocks,
		conjunctive: r.WasConjunctive && len(r.Blocks) == 1,
		rewritable:  r.Rewritable,
		canonKey:    canonicalKey(r.Blocks),
	}
}

// replay recounts a previously-seen distinct SQL string from its cached
// classification. This is the duplicate-heavy steady state of ingest —
// the Table 1 workloads repeat each distinct query ~700× — so it must
// stay pure counter arithmetic.
//
//logr:noalloc
func (e *Encoder) replay(ref rawRef, count int) {
	switch ref {
	case refStoredProc:
		e.stats.StoredProcedures += count
		return
	case refUnparseable:
		e.stats.Unparseable += count
		return
	}
	c := &e.canon[ref-refCanon]
	c.count += count
	e.stats.Queries += count
	e.featSum += len(c.indices) * count
	e.encodedN += count
}

// admit merges one newly-seen distinct SQL string into the shared state.
// This is the only place features enter the codebooks, and callers invoke
// it in input order, which pins every feature's index.
func (e *Encoder) admit(sql string, p prepared, count int) {
	e.raws = append(e.raws, sql)
	e.stats.DistinctQueries++
	switch p.fail {
	case failStoredProc:
		e.refs[sql] = refStoredProc
		e.stats.StoredProcedures += count
		return
	case failUnparseable:
		e.refs[sql] = refUnparseable
		e.stats.Unparseable += count
		return
	}
	e.stats.Queries += count

	// feature count before constant removal (Table 1 row 7)
	for _, blk := range p.withConst {
		e.withConstBook.Extract(blk)
	}

	// A statement whose canonical query is already in the table — all but
	// one per shape on a log whose statements differ only in constants —
	// needs no scrubbed-block extraction: the features are a function of
	// the canonical key, so they are interned and their indices are
	// c.indices.
	ci, ok := e.canonIdx[p.canonKey]
	if !ok {
		set := map[int]bool{}
		for _, blk := range p.blocks {
			for _, f := range e.book.Extract(blk) {
				set[f] = true
			}
		}
		indices := make([]int, 0, len(set))
		for f := range set {
			indices = append(indices, f)
		}
		sortInts(indices)
		ci = uint32(len(e.canon))
		e.canon = append(e.canon, canonical{key: p.canonKey, indices: indices, conjunctive: p.conjunctive, rewritable: p.rewritable})
		e.canonIdx[p.canonKey] = ci
	}
	e.refs[sql] = refCanon + rawRef(ci)
	c := &e.canon[ci]
	c.count += count
	e.featSum += len(c.indices) * count
	e.encodedN += count
}

// EncodedQueries returns the number of encoded queries so far (duplicates
// included) — the running Log.Total() of the next snapshot, maintained as
// a counter so threshold checks need not materialize a snapshot.
func (e *Encoder) EncodedQueries() int { return e.encodedN }

// Book returns the encoder's codebook. The codebook instance is shared
// across the encoder's whole life — snapshots reference it, it only ever
// grows — so this is a cheap accessor for callers that need feature
// translation without materializing a full snapshot.
func (e *Encoder) Book() *feature.Codebook { return e.book }

// Result snapshots the encoded log, codebook and statistics. The encoder
// remains usable; later Adds extend the same codebook (vectors in earlier
// snapshots keep their universe). The snapshot is cached until the next
// mutation, so repeated Result calls between Adds are free; callers must
// treat the returned Log as read-only.
func (e *Encoder) Result() EncodeResult {
	if e.snapshot != nil {
		return *e.snapshot
	}
	stats := e.stats
	stats.DistinctNoConst = len(e.canon)
	stats.Features = e.withConstBook.Size()
	stats.FeaturesNoConst = e.book.Size()

	l := core.NewLog(e.book.Size())
	for i := range e.canon {
		c := &e.canon[i]
		if c.conjunctive {
			stats.DistinctConjunctive++
		}
		if c.rewritable {
			stats.DistinctRewritable++
		}
		if c.count > stats.MaxMultiplicity {
			stats.MaxMultiplicity = c.count
		}
		l.Add(e.book.Vector(c.indices), c.count)
	}
	if e.encodedN > 0 {
		stats.AvgFeaturesPerQuery = float64(e.featSum) / float64(e.encodedN)
	}
	r := EncodeResult{
		Log: l, Book: e.book, Stats: stats,
		Epoch: Epoch{Universe: l.Universe(), TotalQueries: l.Total(), Distinct: l.Distinct()},
	}
	e.snapshot = &r
	return r
}

// Encode runs every entry through the pipeline on all cores and snapshots
// the result — the batch convenience over Encoder.
func Encode(entries []LogEntry, opts EncodeOptions) EncodeResult {
	enc := NewEncoder(opts)
	enc.AddBatch(entries)
	return enc.Result()
}

func canonicalKey(blocks []*sqlparser.Select) string {
	if len(blocks) == 1 {
		return blocks[0].SQL()
	}
	parts := make([]string, len(blocks))
	for i, b := range blocks {
		parts[i] = b.SQL()
	}
	// blocks arrive in deterministic order from the rewriter; sort anyway
	// so logically identical unions collide
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j-1] > parts[j]; j-- {
			parts[j-1], parts[j] = parts[j], parts[j-1]
		}
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += " UNION ALL " + p
	}
	return out
}
