package core

// Segment-range merging: the summary algebra behind the segmented store.
// A long-running workload is sealed into immutable segments, each compressed
// independently; the summary of a contiguous segment range is then *derived*
// from the per-segment summaries instead of re-clustering the concatenated
// log. MergeRange concatenates the per-segment mixtures over the union
// universe (Mixture.Merge) — a lossless operation whose Reproduction Error
// is exactly the weighted combination of the per-segment errors.
// Consolidate then trades components for error: the merged mixture carries
// one component per segment cluster (K grows linearly with the range
// width), so its components become the leaves of the same merge tree the
// auto sweep cuts (mergeTree), and the range summary is one cut of it — the
// component budget's, or the smallest within the error target. The caller compares the consolidated error
// against the lossless merge's and, as in Recompress, falls back to a full
// re-cluster when the drift is too large.

import (
	"fmt"
	"math"

	"logr/internal/cluster"
	"logr/internal/parallel"
)

// MergeRange combines the compressions of disjoint sub-logs — the sealed
// segments of one workload, in segment order — into one Compressed over the
// union universe. Components keep their encodings (features newer than their
// segment are off their supports); each weight is the component's share of
// the range's queries. The result's Err is evaluated exactly
// against the concatenated partition, which equals the total-weighted
// average of the per-segment errors.
//
// Every input must carry its partition (Parts) and a known Err; summaries
// restored from disk cannot be range-merged.
func MergeRange(cs []*Compressed, par int) (*Compressed, error) {
	if len(cs) == 0 {
		return nil, fmt.Errorf("core: MergeRange over an empty segment range")
	}
	u := 0
	for i, c := range cs {
		if c == nil || math.IsNaN(c.Err) || (c.Mixture.K() > 0 && len(c.Parts) == 0) {
			return nil, fmt.Errorf("core: MergeRange: segment %d has no partition to merge", i)
		}
		if c.Mixture.Universe > u {
			u = c.Mixture.Universe
		}
	}
	if len(cs) == 1 {
		return cs[0], nil
	}
	mix := cs[0].Mixture
	for _, c := range cs[1:] {
		mix = mix.Merge(c.Mixture)
	}
	var parts []*Log
	for _, c := range cs {
		for _, p := range c.Parts {
			if p.Total() == 0 {
				continue
			}
			parts = append(parts, p.Grow(u))
		}
	}
	e, err := mix.ErrorP(parts, par)
	if err != nil {
		return nil, err
	}
	// Instance-level merge: distinct vectors recurring across segments sit in
	// several parts, so there is no single distinct-vector labeling.
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{K: len(parts)}, Parts: parts, Err: e}, nil
}

// consPart is one live component during consolidation: its sub-log, its
// naive encoding and the entropy terms its error contribution is made of.
type consPart struct {
	log    *Log
	enc    Naive
	modelH float64 // H(ρ_E) of enc
	empH   float64 // H(ρ*) of the sub-log
}

// liveConsParts builds the consPart of every non-empty part, in order.
func liveConsParts(parts []*Log) []*consPart {
	live := make([]*consPart, 0, len(parts))
	for _, p := range parts {
		if p.Total() > 0 {
			live = append(live, newConsPart(p))
		}
	}
	return live
}

func newConsPart(l *Log) *consPart {
	e := NaiveEncode(l)
	return &consPart{log: l, enc: e, modelH: e.ModelEntropy(), empH: l.EmpiricalEntropy()}
}

// excess is the part's share of T·Err: |L_i| · (H(ρ_E) − H(ρ*)).
func (p *consPart) excess() float64 { return float64(p.enc.Count) * (p.modelH - p.empH) }

// poolScore is T·ΔH(ρ_E) of pooling the encodings a and b, whose model
// entropies are ha and hb: the pooled model entropy over |L_a| + |L_b|
// queries minus the two inputs'.
func poolScore(a, b Naive, ha, hb float64) float64 {
	return float64(a.Count+b.Count)*pooledEntropy(a, b) - float64(a.Count)*ha - float64(b.Count)*hb
}

// compactionScore estimates T·ΔErr for coalescing parts a and b: the model-
// entropy increase of pooling their feature counts minus the empirical-entropy
// increase of pooling their histograms, taken as the exact mixing term of
// disjoint histograms. That is exact for the auto sweep's leaves, which
// partition the distinct vectors, and approximate for range-merged segment
// clusters that share distinct vectors. Negative scores mean the merge is
// estimated to *reduce* the error. The score only ranks candidates:
// mergeTree records each merge's exact ΔErr from the merged part's entropy
// terms.
func compactionScore(a, b *consPart) float64 {
	wa, wb := float64(a.enc.Count), float64(b.enc.Count)
	w := wa + wb
	mixing := wa*math.Log(w/wa) + wb*math.Log(w/wb)
	return poolScore(a.enc, b.enc, a.modelH, b.modelH) - mixing
}

// agglomerateParts runs cluster.Agglomerate over leaves under a pair score:
// each merge pools its pair into a new node, scored against the remaining
// ones. The initial O(K²) score fill is the bulk of the scoring work and
// fans out over the pool by rows — each worker writes only its own row, so
// the tree is deterministic at any parallelism.
func agglomerateParts[P any](leaves []P, par int, score func(a, b P) float64, pool func(a, b P) P) *cluster.Dendrogram {
	nodes := leaves[:len(leaves):len(leaves)] // appends never write into the caller's array
	s := make([][]float64, len(nodes))
	for i := range s {
		s[i] = make([]float64, len(nodes))
	}
	parallel.For(len(nodes), par, func(i int) {
		for j := i + 1; j < len(nodes); j++ {
			s[i][j] = score(nodes[i], nodes[j])
		}
	})
	for i := range s {
		for j := 0; j < i; j++ {
			s[i][j] = s[j][i]
		}
	}
	return cluster.Agglomerate(s, func(a, b int) func(int, float64, float64) float64 {
		m := pool(nodes[a], nodes[b])
		nodes = append(nodes, m)
		return func(k int, _, _ float64) float64 { return score(m, nodes[k]) }
	})
}

// mergeConsParts materializes the coalesced part: the sub-logs are merged
// with deduplication (segments can repeat distinct vectors) and the exact
// entropy terms recomputed.
func mergeConsParts(a, b *consPart) *consPart {
	l := NewLog(a.log.Universe())
	l.Merge(a.log)
	l.Merge(b.log)
	return newConsPart(l)
}

// MergeAligned consolidates per-segment compressions whose components are
// label-aligned: when every segment's summary is a K-cluster k-means run
// warm-started from its predecessor's centroids (the segmented store's
// summary chain), label i denotes the same evolving cluster in every
// segment — the warm path pins labels to their seeding centroid, exactly
// like Recompress pinning a delta to its component. Consolidation is then
// scoring-free: part i of the range is the union of part i across
// segments, one linear pass instead of greedy pairwise coalescing. ok is
// false when any segment's partition does not have exactly k parts (cold
// mismatched runs, other methods) — callers fall back to Consolidate.
func MergeAligned(cs []*Compressed, k, par int) (*Compressed, bool) {
	if k <= 0 || len(cs) == 0 {
		return nil, false
	}
	u, total := 0, 0
	for _, c := range cs {
		if len(c.Parts) != k {
			return nil, false
		}
		if c.Mixture.Universe > u {
			u = c.Mixture.Universe
		}
		total += c.Mixture.Total
	}
	groups := make([]*Log, k)
	parallel.For(k, par, func(i int) {
		g := NewLog(u)
		for _, c := range cs {
			p := c.Parts[i]
			if p.Total() == 0 {
				continue
			}
			if p.Universe() < u {
				p = p.Grow(u)
			}
			g.Merge(p)
		}
		groups[i] = g
	})
	mix := BuildMixtureP(groups, par)
	e, err := mix.ErrorP(groups, par)
	if err != nil {
		return nil, false
	}
	if mix.Total != total {
		// a distinct vector double-counted or lost — cannot happen with
		// disjoint per-segment parts, but refuse rather than mis-weight
		return nil, false
	}
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{K: k}, Parts: groups, Err: e}, true
}

// Consolidate reduces the component count of a range-merged compression to
// a cut of the merge tree over its parts (mergeTree): the opts.K-part cut
// when opts.K > 0, otherwise the smallest cut with Err ≤ opts.TargetError —
// the auto sweep's contract. It returns c itself when no smaller cut
// applies. Only K, TargetError and Parallelism of opts are read. The input
// is never mutated, and the result is identical at any opts.Parallelism.
func Consolidate(c *Compressed, opts CompressOptions) *Compressed {
	if opts.K > 0 && opts.K >= c.Mixture.K() {
		return c
	}
	tree, errs := mergeTree(c, opts.Parallelism)
	k := opts.K
	if k <= 0 {
		k = smallestCut(errs, opts.TargetError)
	}
	if k >= tree.Len() {
		return c
	}
	// Each cut part pools its leaves' sub-logs, deduplicating the distinct
	// vectors that recur across segments.
	cut := tree.Cut(k)
	parts := make([]*Log, k)
	leaf := 0
	for _, p := range c.Parts {
		if p.Total() == 0 {
			continue
		}
		lbl := cut.Labels[leaf]
		if parts[lbl] == nil {
			parts[lbl] = NewLog(p.Universe())
		}
		parts[lbl].Merge(p)
		leaf++
	}
	mix := BuildMixtureP(parts, opts.Parallelism)
	e, err := mix.ErrorP(parts, opts.Parallelism)
	if err != nil {
		// cannot happen: parts and components are built together
		e = math.NaN()
	}
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{K: k}, Parts: parts, Err: e}
}

// CompactionRuns plans segment compaction: given the per-segment query
// counts of adjacent sealed segments, it returns the index ranges [lo, hi)
// of runs of small segments (each < minQueries) that should merge into one.
// Runs are cut greedily once their running total reaches minQueries, so
// compacted segments converge toward the threshold instead of snowballing;
// single small segments with no small neighbor are left alone.
func CompactionRuns(sizes []int, minQueries int) [][2]int {
	var runs [][2]int
	for i := 0; i < len(sizes); {
		if sizes[i] >= minQueries {
			i++
			continue
		}
		lo, total := i, 0
		for i < len(sizes) && sizes[i] < minQueries && total < minQueries {
			total += sizes[i]
			i++
		}
		if i-lo >= 2 {
			runs = append(runs, [2]int{lo, i})
		}
	}
	return runs
}
