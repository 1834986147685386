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
	// DistinctQueries counts distinct raw SQL strings (constants intact),
	// exactly up to a collision of their 64-bit hashes.
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
	// FeaturesNoConst counts the codebook's distinct features: after
	// constant removal, unless EncodeOptions.KeepConstants is set. Table 1's
	// with-constants count is an offline pass of its own
	// (experiments.DistinctFeatures).
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
	// KeepConstants disables constant scrubbing: literals stay in the
	// canonical queries, the features and the statement fingerprints.
	KeepConstants bool
	// MaxDisjuncts bounds conjunctive rewriting (default 16).
	MaxDisjuncts int
	// Parallelism bounds the workers AddBatch uses to lex and hash new
	// statements and to parse, regularize and walk new shapes (≤ 0 = all
	// cores). The codebook and all statistics are identical at any
	// parallelism.
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
// a growing log file) and a snapshot taken at any point.
//
// Statements that differ only in their literals are one query to the paper
// (Section 7), and the encoder does the work once per such shape: a
// statement is lexed into its literal-blind fingerprint
// (sqlparser.Fingerprint), and only the first statement of a fingerprint is
// parsed and regularized; every later one maps straight to the same
// canonical query or failure kind. Per statement it keeps only a 64-bit
// hash of the raw string, which is what keeps DistinctQueries exact (up to
// a hash collision). The fingerprint table and a cache of recent raw
// strings are memo tables: bounded by cacheLimit, never persisted, and
// consulted only for outcomes prepare would recompute identically.
//
// The pipeline is sharded: AddBatch lexes and hashes every statement the
// raw cache does not hold, and parses, regularizes and walks the features
// of the first statement of each new fingerprint, on parallel workers
// (stateless work). What must be ordered — the memo lookups, the job
// dedup, codebook interning and counting — runs in input order on one
// goroutine, so codebook feature indices are assigned exactly as a serial
// Add loop would assign them. An Encoder is not itself safe for concurrent
// use; the public logr.Workload wrapper adds the locking.
type Encoder struct {
	opts    EncodeOptions
	book    *feature.Codebook
	regOpts regularize.Options

	stats PipelineStats
	// The admission tables are append-only: a canonical query, a feature
	// and a raw statement's hash are each added once, in input order, and
	// never rewritten — only canonical.count moves afterwards. That is what
	// lets state.go serialize "everything admitted since a StateMark" as
	// three slice suffixes.
	canon     []canonical       // canonical queries, in admission order
	canonIdx  map[string]uint32 // canonical key → index into canon
	rawHashes hashSet           // hashes of the distinct raw statements
	featSum   int
	encodedN  int
	snapshot  *EncodeResult // cached Result; nil after any mutation

	// memo tables, see cacheLimit: a statement's shape key (its
	// fingerprint, or lexFailMark and the statement when it does not lex)
	// and a recently admitted raw statement, each to its outcome
	shapes   map[string]rawRef
	rawCache map[string]rawRef

	// scratch reused across calls so the steady state (every statement's
	// shape already known) allocates nothing: Add's fingerprint buffer, the
	// window's per-entry resolutions, the shape keys of its unresolved
	// entries (one arena per chunk of entries, and where each entry's key
	// ends in it), its jobs (the first statement of each new shape) with
	// their dedup index, and the parallel workers' result slots. Results
	// hold feature lists, so they are cleared after each window.
	fp          []byte
	scratchPend []pending
	scratchEnd  []uint32
	arenas      [][]byte
	scratchJobs []job
	scratchIdx  map[string]int
	scratchRes  []prepared
}

// cacheLimit bounds each memo table. A table that reaches it is cleared and
// refills from the stream, so a shift in the workload costs at most one
// parse per shape again; outcomes never depend on what the tables hold.
const cacheLimit = 1 << 14

// lexFailMark starts the shape key of a statement the lexer rejects. No
// fingerprint starts with it (token kinds are non-zero), so such a
// statement is keyed by its full text and takes the parser's verdict.
const lexFailMark = 0

// rawRef is a statement's outcome: one of the two failure kinds, or
// refCanon plus the index of its canonical query.
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
// pipeline for one shape's first statement: parse, regularization and the
// feature walk of its blocks. Interning the features into the shared
// codebook happens later, in input order.
type prepared struct {
	fail        failKind
	feats       []feature.Feature // every block's features, in walk order
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

// pending is a window entry's resolution from AddBatch's pre-pass: its
// outcome, or the job that will produce it.
type pending struct {
	ref    rawRef
	job    int32  // index into the window's jobs, jobUnresolved, or -1 when ref is final
	cached bool   // found in rawCache: the raw statement is already admitted
	hash   uint64 // hashRaw of the statement, unless cached
}

// jobUnresolved marks an entry whose shape neither memo table knows until
// the pre-pass's serial step gives it a job.
const jobUnresolved = -2

// job is the first statement of a shape new to the window.
type job struct {
	key, sql string
	ref      rawRef
	done     bool
}

// NewEncoder prepares an empty pipeline.
func NewEncoder(opts EncodeOptions) *Encoder {
	if opts.MaxDisjuncts <= 0 {
		opts.MaxDisjuncts = 16
	}
	return &Encoder{
		opts:       opts,
		book:       feature.NewCodebook(opts.Scheme),
		regOpts:    regularize.Options{ScrubConstants: !opts.KeepConstants, MaxDisjuncts: opts.MaxDisjuncts},
		canonIdx:   map[string]uint32{},
		shapes:     map[string]rawRef{},
		rawCache:   map[string]rawRef{},
		scratchIdx: map[string]int{},
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
	ref, cached := e.rawCache[entry.SQL]
	if !cached {
		e.fp = appendShapeKey(e.fp[:0], entry.SQL, e.opts.KeepConstants)
		var known bool
		if ref, known = e.shapes[string(e.fp)]; !known { //logr:allow(noalloc) a map lookup keyed by string(bytes) does not copy
			ref = e.admitShape(string(e.fp), e.prepare(entry.SQL)) //logr:allow(noalloc) a shape's first statement; steady state never reaches this
		}
		e.admitRaw(entry.SQL, hashRaw(entry.SQL), ref)
	}
	e.replay(ref, count)
}

// addBatchWindow is the window size AddBatch shards a batch into: large
// enough to keep the workers fed, small enough that the shape keys and
// feature lists held alive before each merge stay bounded regardless of
// batch size.
const addBatchWindow = 8192

// AddBatch feeds a batch of entries through the pipeline. The stateless
// work — lexing and hashing each statement not in the raw cache, and
// parsing, regularizing and walking the features of the first statement of
// each new shape — runs on up to EncodeOptions.Parallelism workers; the
// merge (memo lookups, codebook interning, stats, multiplicities) runs in
// input order, so the resulting codebook, log and statistics are
// byte-identical to a serial Add loop over the same entries, at any
// parallelism. Batches are processed in fixed windows so peak memory is
// O(window), not O(batch).
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
	// pre-pass: resolve each entry against the memo tables as they stand
	// (the merge below may clear them), on the workers, which only read
	// them; then, in input order, the first statement of each shape they
	// do not know becomes a job
	if cap(e.scratchPend) < len(entries) {
		e.scratchPend = make([]pending, addBatchWindow)            //logr:allow(noalloc) one-time scratch growth
		e.scratchEnd = make([]uint32, addBatchWindow)              //logr:allow(noalloc) as above
		e.arenas = make([][]byte, parallel.Chunks(addBatchWindow)) //logr:allow(noalloc) as above
	}
	pend := e.scratchPend[:len(entries)]
	e.resolve(entries, pend)
	jobs := e.scratchJobs[:0]
	jobIdx := e.scratchIdx
	for c := range parallel.Chunks(len(entries)) {
		lo, hi := parallel.ChunkBounds(c, len(entries))
		arena, from := e.arenas[c], uint32(0)
		for i := lo; i < hi; i++ {
			key := arena[from:e.scratchEnd[i]]
			from = e.scratchEnd[i]
			if pend[i].job != jobUnresolved {
				continue
			}
			j, dup := jobIdx[string(key)] //logr:allow(noalloc) a map lookup keyed by string(bytes) does not copy
			if !dup {
				j = len(jobs)
				k := string(key)                                      //logr:allow(noalloc) a shape's first statement; steady state never reaches this
				jobIdx[k] = j                                         //logr:allow(noalloc) as above
				jobs = append(jobs, job{key: k, sql: entries[i].SQL}) //logr:allow(noalloc) as above
			}
			pend[i].job = int32(j)
		}
	}
	var results []prepared
	if len(jobs) > 0 {
		if cap(e.scratchRes) < len(jobs) {
			e.scratchRes = make([]prepared, len(jobs)) //logr:allow(noalloc) result-slot capacity growth, amortizes to zero
		}
		results = e.scratchRes[:len(jobs)]
		parallel.For(len(jobs), e.opts.Parallelism, func(i int) { //logr:allow(noalloc) parse fan-out runs only when the window carries a new shape
			results[i] = e.prepare(jobs[i].sql)
		})
	}
	for i, en := range entries {
		count := en.Count
		if count <= 0 {
			count = 1
		}
		e.stats.TotalQueries += count
		p := pend[i]
		if p.job >= 0 {
			jb := &jobs[p.job]
			if !jb.done {
				jb.ref, jb.done = e.admitShape(jb.key, results[p.job]), true
			}
			p.ref = jb.ref
		}
		if !p.cached {
			e.admitRaw(en.SQL, p.hash, p.ref)
		}
		e.replay(p.ref, count)
	}
	if len(jobs) > 0 {
		// drop the feature lists so the scratch does not pin them, and keep
		// the job list and index for the next window
		clear(results)
		clear(jobIdx)
		clear(jobs)
		e.scratchRes = results[:0]
	}
	e.scratchJobs = jobs[:0]
}

// resolve looks each entry up in the raw cache and, failing that, its
// shape key in the fingerprint table, computing the hashRaw of every
// statement the cache misses. An entry neither table resolves is left
// jobUnresolved, its shape key in its chunk's arena.
//
//logr:noalloc
func (e *Encoder) resolve(entries []LogEntry, pend []pending) {
	n := len(entries)
	if p := resolveWorkers(n, e.opts.Parallelism); p > 1 {
		parallel.ForChunks(n, p, func(c, lo, hi int) { //logr:allow(noalloc) the fan-out runs only on windows of four chunks or more
			e.resolveChunk(entries, pend, c, lo, hi)
		})
		return
	}
	for c := range parallel.Chunks(n) {
		lo, hi := parallel.ChunkBounds(c, n)
		e.resolveChunk(entries, pend, c, lo, hi)
	}
}

// resolveWorkers is how many workers resolve runs a window of n entries on
// at parallelism par: as many as it asks for, but at least two chunks each,
// so a window of three chunks or fewer (768 entries) stays serial. On
// ingest_novel, whose client sends 512-entry batches, fanning those out as
// well cost 14 % more CPU per query and 9 % of throughput in the medians of
// ten interleaved pairs on a 2-core machine (more CPU in 8 of 10).
func resolveWorkers(n, par int) int {
	return min(parallel.Degree(par), parallel.Chunks(n)/2)
}

// resolveChunk is resolve on chunk c, entries[lo:hi]. It reads the memo
// tables and writes only the chunk's arena and its entries' resolutions
// and key ends, so chunks can run on parallel workers while nothing
// writes the tables.
//
//logr:noalloc
func (e *Encoder) resolveChunk(entries []LogEntry, pend []pending, c, lo, hi int) {
	arena := e.arenas[c][:0]
	for i := lo; i < hi; i++ {
		sql := entries[i].SQL
		if ref, ok := e.rawCache[sql]; ok {
			pend[i] = pending{ref: ref, job: -1, cached: true}
		} else {
			from := len(arena)
			arena = appendShapeKey(arena, sql, e.opts.KeepConstants)
			pend[i] = pending{job: jobUnresolved, hash: hashRaw(sql)}
			if ref, ok := e.shapes[string(arena[from:])]; ok { //logr:allow(noalloc) a map lookup keyed by string(bytes) does not copy
				pend[i].ref, pend[i].job = ref, -1
				arena = arena[:from]
			}
		}
		e.scratchEnd[i] = uint32(len(arena))
	}
	e.arenas[c] = arena
}

// appendShapeKey appends sql's shape key to dst: its fingerprint, or, when
// the lexer rejects it, lexFailMark and the statement, so that prepare
// takes the parser's verdict, which may still be a stored procedure
// ("CALL p('unterminated").
//
//logr:noalloc
func appendShapeKey(dst []byte, sql string, keepLiterals bool) []byte {
	start := len(dst)
	fp, err := sqlparser.Fingerprint(dst, sql, keepLiterals)
	if err != nil {
		return append(append(fp[:start], lexFailMark), sql...)
	}
	return fp
}

// prepare runs the stateless half of the pipeline for one SQL string. It
// writes no Encoder state and reads only the immutable options and
// canonIdx, which nothing writes while workers run (the merge waits for
// them), so it is safe to call from parallel workers.
func (e *Encoder) prepare(sql string) prepared {
	stmt, err := sqlparser.Parse(sql)
	if err != nil {
		if _, ok := err.(*sqlparser.UnsupportedError); ok {
			return prepared{fail: failStoredProc}
		}
		return prepared{fail: failUnparseable}
	}
	r := regularize.Regularize(stmt, e.regOpts)
	p := prepared{
		conjunctive: r.WasConjunctive && len(r.Blocks) == 1,
		rewritable:  r.Rewritable,
		canonKey:    canonicalKey(r.Blocks),
	}
	// A shape whose canonical query is already in the table — one
	// fingerprint per IN-list length, say — needs no walk: the features
	// are a function of the canonical key, and admitShape reuses the
	// query's indices.
	if _, known := e.canonIdx[p.canonKey]; !known {
		for _, blk := range r.Blocks {
			p.feats = e.opts.Scheme.AppendFeatures(p.feats, blk)
		}
	}
	return p
}

// replay counts a statement whose outcome is known. This is the steady
// state of ingest — the Table 1 workloads repeat each distinct query ~700×,
// and a novel statement of a known shape lands here after a lex — so it
// must stay pure counter arithmetic.
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

// admitShape records the outcome of a shape's first statement under the
// shape's key. This is the only place features enter the codebook, and
// callers invoke it in input order, which pins every feature's index.
func (e *Encoder) admitShape(key string, p prepared) rawRef {
	ref := refUnparseable
	switch p.fail {
	case failStoredProc:
		ref = refStoredProc
	case failNone:
		// a canonical query already in the table has its indices; prepare
		// walked the features of any other (canonIdx only grows)
		ci, ok := e.canonIdx[p.canonKey]
		if !ok {
			ci = uint32(len(e.canon))
			e.canon = append(e.canon, canonical{key: p.canonKey, indices: e.book.Intern(p.feats), conjunctive: p.conjunctive, rewritable: p.rewritable})
			e.canonIdx[p.canonKey] = ci
		}
		ref = refCanon + rawRef(ci)
	}
	remember(e.shapes, key, ref)
	return ref
}

// admitRaw records a raw statement not in rawCache, whose hashRaw is h: it
// counts towards DistinctQueries unless h was admitted before, and it
// enters the cache.
//
//logr:noalloc
func (e *Encoder) admitRaw(sql string, h uint64, ref rawRef) {
	if e.rawHashes.add(h) {
		e.stats.DistinctQueries++
	}
	remember(e.rawCache, sql, ref)
}

// remember inserts into a memo table, clearing it first when it is full.
//
//logr:noalloc
func remember(m map[string]rawRef, key string, ref rawRef) {
	if len(m) >= cacheLimit {
		clear(m)
	}
	m[key] = ref //logr:allow(noalloc) map growth stops at cacheLimit entries; clear keeps the capacity
}

// IngestedQueries returns the number of queries fed so far (entry counts
// summed), stored procedures and unparseable entries included: the running
// Stats.TotalQueries.
func (e *Encoder) IngestedQueries() int { return e.stats.TotalQueries }

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
