// Package core implements LogR itself: the information-theoretic model of a
// query log (Section 2.3), pattern and naive encodings with their fidelity
// measures — Verbosity, Reproduction Error, Ambiguity and Deviation
// (Sections 3–4), pattern mixture encodings (Section 5), the compression
// driver (Section 6), workload-statistic estimation (Section 6.2), and the
// corr_rank refinement machinery (Section 6.4).
package core

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/parallel"
	"logr/internal/stats"
)

// Log is a bag of encoded queries: the empirical distribution p(Q | L) over
// feature vectors, stored as distinct vectors with multiplicities. Order is
// deliberately not represented — LogR targets aggregate (order-independent)
// workload statistics.
type Log struct {
	universe int
	vecs     []bitvec.Vector
	mult     []int
	// index maps vector key → position in vecs. It exists only to serve
	// keyed lookups (Add dedup, Prob) and is built lazily: bulk construction
	// paths that produce provably-distinct vectors (Partition, Grow, Clone)
	// skip the per-vector Key/map cost entirely, and read-only consumers
	// (mixture building, Error scoring) never pay it at all. indexOnce makes
	// the lazy build safe for concurrent readers (Prob keeps the pre-lazy
	// contract that read-only methods may race each other); Add remains, as
	// before, unsafe to race with anything.
	index     map[string]int
	indexOnce sync.Once
	// postings lists, per feature, the ascending positions of the distinct
	// vectors that hold it: Count's index. Like the key index it is built
	// lazily, at the first Count and at most once under postingsOnce, so a
	// log that is never counted holds none and the bulk constructors return
	// logs without it. Add keeps built postings current.
	postings     [][]int32
	postingsOnce sync.Once
	total        int
}

// NewLog returns an empty log over a feature universe of size n.
func NewLog(n int) *Log {
	return &Log{universe: n}
}

// NewLogDistinct returns the log holding vecs with multiplicities mult,
// taking both slices over. The caller vouches that the vectors are
// distinct and over a universe of size n and that every multiplicity is
// positive, so nothing is cloned and no key index is built.
func NewLogDistinct(n int, vecs []bitvec.Vector, mult []int) *Log {
	if len(vecs) != len(mult) {
		panic("core: NewLogDistinct needs one multiplicity per vector")
	}
	l := &Log{universe: n, vecs: vecs, mult: mult}
	for _, c := range mult {
		l.total += c
	}
	return l
}

// ensureIndex materializes the key index from the current vectors, at most
// once even under concurrent readers.
func (l *Log) ensureIndex() {
	l.indexOnce.Do(func() {
		l.index = make(map[string]int, len(l.vecs))
		for i, v := range l.vecs {
			l.index[v.Key()] = i
		}
	})
}

// ensurePostings materializes the posting lists from the current vectors,
// at most once even under concurrent readers. One backing array holds every
// list, each capped at its length so that Add's appends reallocate only the
// list they grow.
func (l *Log) ensurePostings() {
	l.postingsOnce.Do(func() {
		sizes := make([]int, l.universe)
		n := 0
		for _, v := range l.vecs {
			for f := v.NextSet(0); f >= 0; f = v.NextSet(f + 1) {
				sizes[f]++
				n++
			}
		}
		flat := make([]int32, n)
		post := make([][]int32, l.universe)
		off := 0
		for f, c := range sizes {
			post[f] = flat[off : off : off+c]
			off += c
		}
		for i, v := range l.vecs {
			for f := v.NextSet(0); f >= 0; f = v.NextSet(f + 1) {
				post[f] = append(post[f], int32(i))
			}
		}
		l.postings = post
	})
}

// Universe returns the feature-universe size n.
func (l *Log) Universe() int { return l.universe }

// Add inserts count occurrences of the query vector v.
func (l *Log) Add(v bitvec.Vector, count int) {
	if v.Len() != l.universe {
		panic(fmt.Sprintf("core: vector universe %d != log universe %d", v.Len(), l.universe))
	}
	if count <= 0 {
		return
	}
	l.ensureIndex()
	k := v.Key()
	if i, ok := l.index[k]; ok {
		l.mult[i] += count
	} else {
		pos := len(l.vecs)
		l.index[k] = pos
		l.vecs = append(l.vecs, v.Clone())
		l.mult = append(l.mult, count)
		if l.postings != nil {
			for f := v.NextSet(0); f >= 0; f = v.NextSet(f + 1) {
				l.postings[f] = append(l.postings[f], int32(pos))
			}
		}
	}
	l.total += count
}

// Total returns |L|, the number of queries including duplicates.
func (l *Log) Total() int { return l.total }

// Distinct returns the number of distinct query vectors.
func (l *Log) Distinct() int { return len(l.vecs) }

// Vector returns the i-th distinct vector (not a copy; do not mutate).
func (l *Log) Vector(i int) bitvec.Vector { return l.vecs[i] }

// Multiplicity returns the multiplicity of the i-th distinct vector.
func (l *Log) Multiplicity(i int) int { return l.mult[i] }

// MaxMultiplicity returns the largest multiplicity of any distinct query.
func (l *Log) MaxMultiplicity() int {
	m := 0
	for _, c := range l.mult {
		if c > m {
			m = c
		}
	}
	return m
}

// Count returns Γ_b(L) = |{q ∈ L : b ⊆ q}|, the exact number of log entries
// containing pattern b — the statistic client applications ask for. It
// tests containment only along the posting list of b's rarest feature, so
// a count costs that feature's support, not a scan of the log; the empty
// pattern counts every entry. The first Count builds the posting lists;
// later ones allocate nothing. Concurrent Counts are safe, Count racing
// Add is not.
func (l *Log) Count(b bitvec.Vector) int {
	if b.Len() != l.universe {
		panic(fmt.Sprintf("core: pattern universe %d != log universe %d", b.Len(), l.universe))
	}
	first := b.NextSet(0)
	if first < 0 {
		return l.total
	}
	l.ensurePostings()
	rare := l.postings[first]
	for f := b.NextSet(first + 1); f >= 0 && len(rare) > 0; f = b.NextSet(f + 1) {
		if p := l.postings[f]; len(p) < len(rare) {
			rare = p
		}
	}
	n := 0
	for _, i := range rare {
		if l.vecs[i].Contains(b) {
			n += l.mult[i]
		}
	}
	return n
}

// CountBatch returns Γ_b(L) for every pattern in bs, sharing a single pass
// over the log's distinct vectors (far better cache behavior than len(bs)
// separate Count calls). The containment test is word-packed and
// popcount-based: b ⊆ v iff |b ∧ v| = |b|. The scan is chunked over up to p
// workers (p ≤ 0 = all cores); counts are integers, so results are exact
// and identical at any parallelism.
func (l *Log) CountBatch(bs []bitvec.Vector, p int) []int {
	out := make([]int, len(bs))
	if len(bs) == 0 || len(l.vecs) == 0 {
		return out
	}
	need := make([]int, len(bs))
	for j, b := range bs {
		need[j] = b.Count()
	}
	nc := parallel.Chunks(len(l.vecs))
	partial := make([][]int, nc)
	parallel.ForChunks(len(l.vecs), p, func(c, lo, hi int) {
		cnt := make([]int, len(bs))
		and := make([]int, len(bs))
		for i := lo; i < hi; i++ {
			l.vecs[i].AndCountInto(bs, and)
			m := l.mult[i]
			for j, a := range and {
				if a == need[j] {
					cnt[j] += m
				}
			}
		}
		partial[c] = cnt
	})
	for _, cnt := range partial {
		for j, c := range cnt {
			out[j] += c
		}
	}
	return out
}

// Marginal returns p(Q ⊇ b | L) = Γ_b(L) / |L|.
func (l *Log) Marginal(b bitvec.Vector) float64 {
	if l.total == 0 {
		return 0
	}
	return float64(l.Count(b)) / float64(l.total)
}

// featureSums returns every feature's count c_i — the number of queries
// containing it — summed on the bit-column accumulator: one direct word
// scan per distinct vector, one allocation total. The float64 sums are
// exact integers below 2^53.
func (l *Log) featureSums() []float64 {
	out := make([]float64, l.universe)
	for i, v := range l.vecs {
		v.AccumulateInto(out, float64(l.mult[i]))
	}
	return out
}

// FeatureMarginals returns p(X_i = 1 | L) = c_i / |L| for every feature
// (see BenchmarkFeatureMarginals).
func (l *Log) FeatureMarginals() []float64 {
	out := l.featureSums()
	if l.total > 0 {
		for j := range out {
			out[j] /= float64(l.total)
		}
	}
	return out
}

// UsedFeatures returns the number of features that appear in at least one
// query.
func (l *Log) UsedFeatures() int {
	seen := bitvec.New(l.universe)
	for _, v := range l.vecs {
		seen.OrInPlace(v)
	}
	return seen.Count()
}

// AvgFeaturesPerQuery returns the mean feature count over all log entries.
func (l *Log) AvgFeaturesPerQuery() float64 {
	if l.total == 0 {
		return 0
	}
	s := 0
	for i, v := range l.vecs {
		s += v.Count() * l.mult[i]
	}
	return float64(s) / float64(l.total)
}

// EmpiricalEntropy returns H(ρ*) in nats: the plug-in entropy of the
// distinct-query histogram, i.e. the entropy of drawing a query uniformly
// from the log (Section 2.3.1).
func (l *Log) EmpiricalEntropy() float64 {
	if l.total == 0 {
		return 0
	}
	h := 0.0
	n := float64(l.total)
	for _, c := range l.mult {
		p := float64(c) / n
		h -= p * math.Log(p)
	}
	return h
}

// Prob returns ρ*(q): the empirical probability of drawing exactly q.
func (l *Log) Prob(q bitvec.Vector) float64 {
	if l.total == 0 {
		return 0
	}
	l.ensureIndex()
	if i, ok := l.index[q.Key()]; ok {
		return float64(l.mult[i]) / float64(l.total)
	}
	return 0
}

// Binary returns the distinct vectors with their multiplicity weights as
// packed clustering input (clustering distinct queries weighted by
// multiplicity is exactly equivalent to clustering the full log). The
// vectors are shared with the log, not copied (the clustering kernels treat
// points as read-only), so the only allocation is the O(distinct) weight
// slice.
func (l *Log) Binary() cluster.BinaryPoints {
	weights := make([]float64, len(l.vecs))
	for i, m := range l.mult {
		weights[i] = float64(m)
	}
	return cluster.BinaryPoints{Vecs: l.vecs, Weights: weights}
}

// Partition splits the log into asg.K sub-logs over the same universe,
// following a clustering of its distinct vectors. The source vectors are
// already distinct and land in disjoint parts, so the sub-logs are built by
// direct append — no per-vector key, map insert or clone (sub-logs share
// the parent's vectors under the usual read-only contract).
func (l *Log) Partition(asg cluster.Assignment) []*Log {
	if len(asg.Labels) != len(l.vecs) {
		panic("core: assignment length does not match distinct-vector count")
	}
	sizes := make([]int, asg.K)
	for _, lbl := range asg.Labels {
		sizes[lbl]++
	}
	parts := make([]*Log, asg.K)
	for i := range parts {
		parts[i] = &Log{
			universe: l.universe,
			vecs:     make([]bitvec.Vector, 0, sizes[i]),
			mult:     make([]int, 0, sizes[i]),
		}
	}
	for i, v := range l.vecs {
		p := parts[asg.Labels[i]]
		p.vecs = append(p.vecs, v)
		p.mult = append(p.mult, l.mult[i])
		p.total += l.mult[i]
	}
	return parts
}

// Project returns a copy of the log restricted to the given features: each
// query keeps only the selected coordinates (re-indexed 0..len(feats)-1).
// Vectors that collide after projection merge their multiplicities. Used by
// the Deviation experiments, which work over the sub-universe of features
// with informative marginals.
func (l *Log) Project(feats []int) *Log {
	out := NewLog(len(feats))
	for i, v := range l.vecs {
		p := bitvec.New(len(feats))
		for j, f := range feats {
			if v.Get(f) {
				p.Set(j)
			}
		}
		out.Add(p, l.mult[i])
	}
	return out
}

// SelectFeatures returns the features whose marginal lies in [lo, hi],
// sorted by descending Bernoulli entropy (most informative first) and capped
// at max entries (0 = no cap). This is the feature-selection step of the
// Section 7.1 validation experiments.
func (l *Log) SelectFeatures(lo, hi float64, max int) []int {
	marg := l.FeatureMarginals()
	type fe struct {
		idx int
		h   float64
	}
	var fs []fe
	for i, p := range marg {
		if p >= lo && p <= hi {
			fs = append(fs, fe{i, stats.BernoulliEntropy(p)})
		}
	}
	sort.Slice(fs, func(a, b int) bool {
		if fs[a].h != fs[b].h {
			return fs[a].h > fs[b].h
		}
		return fs[a].idx < fs[b].idx
	})
	if max > 0 && len(fs) > max {
		fs = fs[:max]
	}
	out := make([]int, len(fs))
	for i, f := range fs {
		out[i] = f.idx
	}
	sort.Ints(out)
	return out
}

// Grow returns a deep copy of the log over a universe of size n ≥ the
// current one; existing vectors keep their feature indices (bitvec.Grow).
// Growing is how a sub-log compressed under an earlier codebook snapshot is
// lifted onto the universe of a later snapshot before merging.
func (l *Log) Grow(n int) *Log {
	if n < l.universe {
		panic("core: Grow would shrink log universe")
	}
	// growing preserves distinctness, so build directly (lazy index)
	out := &Log{universe: n, vecs: make([]bitvec.Vector, len(l.vecs)), mult: make([]int, len(l.mult)), total: l.total}
	for i, v := range l.vecs {
		out.vecs[i] = v.Grow(n)
	}
	copy(out.mult, l.mult)
	return out
}

// DeltaSince returns the sub-log of entries appended after a snapshot whose
// per-distinct multiplicities were prevCounts: vectors whose multiplicity
// grew contribute the increment, vectors first seen after the snapshot
// contribute everything. Snapshots of one encode pipeline keep distinct
// vectors in first-appearance order and multiplicities only increase, so
// prevCounts aligns with the current distinct order; this is how the
// segmented store materializes a sealed segment's own sub-log. Vectors are
// shared with l under the usual read-only contract. An empty prevCounts
// returns l itself (the whole log is the delta), which keeps the first
// segment's compression bit-identical to compressing the log directly.
func (l *Log) DeltaSince(prevCounts []int) *Log {
	if len(prevCounts) == 0 {
		return l
	}
	out := &Log{universe: l.universe}
	for i, v := range l.vecs {
		c := l.mult[i]
		if i < len(prevCounts) {
			c -= prevCounts[i]
		}
		if c <= 0 {
			continue
		}
		out.vecs = append(out.vecs, v)
		out.mult = append(out.mult, c)
		out.total += c
	}
	return out
}

// Clone returns a deep copy of the log.
func (l *Log) Clone() *Log {
	out := &Log{universe: l.universe, vecs: make([]bitvec.Vector, len(l.vecs)), mult: make([]int, len(l.mult)), total: l.total}
	for i, v := range l.vecs {
		out.vecs[i] = v.Clone()
	}
	copy(out.mult, l.mult)
	return out
}

// Merge adds every entry of other (same universe) into l.
func (l *Log) Merge(other *Log) {
	if other.universe != l.universe {
		panic("core: merging logs over different universes")
	}
	for i, v := range other.vecs {
		l.Add(v, other.mult[i])
	}
}
