package core

// The merge tree's building blocks and the store's compaction planner.
// mergeTree (compress.go) agglomerates the auto sweep's clusters with the
// shared engine below, agglomerateParts, which the gateway's coalescer
// (shardmerge.go) runs over wire components too. A consPart carries the
// exact entropy terms a part contributes to the Reproduction Error, so the
// tree records every cut's exact Err as it merges.

import (
	"math"

	"logr/internal/cluster"
	"logr/internal/parallel"
)

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

// compactionScore is T·ΔErr for coalescing parts a and b: the model-
// entropy increase of pooling their feature counts minus the empirical-
// entropy increase of pooling their histograms, the exact mixing term of
// disjoint histograms. The auto sweep's leaves partition the distinct
// vectors, so the score is exact for them; mergeTree still records each
// merge's ΔErr from the merged part's own entropy terms.
func compactionScore(a, b *consPart) float64 {
	wa, wb := float64(a.enc.Count), float64(b.enc.Count)
	w := wa + wb
	mixing := wa*math.Log(w/wa) + wb*math.Log(w/wb)
	return poolScore(a.enc, b.enc, a.modelH, b.modelH) - mixing
}

// agglomerateParts runs cluster.Agglomerate over leaves under a pair score:
// each merge pools its pair into a new node, scored against the remaining
// ones. The initial O(K²) fill of the score triangle is the bulk of the
// scoring work and fans out over the pool by rows — each worker writes only
// its own row, so the tree is deterministic at any parallelism.
func agglomerateParts[P any](leaves []P, par int, score func(a, b P) float64, pool func(a, b P) P) *cluster.Dendrogram {
	nodes := leaves[:len(leaves):len(leaves)] // appends never write into the caller's array
	s := cluster.UpperTriangle(len(nodes))
	parallel.For(len(nodes), par, func(i int) {
		for j := i + 1; j < len(nodes); j++ {
			s[i][j] = score(nodes[i], nodes[j])
		}
	})
	return cluster.Agglomerate(s, func(a, b int) func(int, float64, float64) float64 {
		m := pool(nodes[a], nodes[b])
		nodes = append(nodes, m)
		return func(k int, _, _ float64) float64 { return score(m, nodes[k]) }
	})
}

// mergeConsParts materializes the coalesced part: the sub-logs are merged
// and the exact entropy terms recomputed.
func mergeConsParts(a, b *consPart) *consPart {
	l := NewLog(a.log.Universe())
	l.Merge(a.log)
	l.Merge(b.log)
	return newConsPart(l)
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
