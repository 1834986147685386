package cluster

import (
	"math"
)

// Dendrogram records an agglomerative clustering (Agglomerate): a binary
// merge tree over the input points. The paper (Section 6.1, "Hierarchical
// Clustering") recommends hierarchical methods because cuts at increasing K
// are monotonic: the K+1 clustering refines the K clustering, giving dynamic
// control over the Error/Verbosity trade-off.
type Dendrogram struct {
	n      int
	merges []merge // n-1 merges in the order they were made
}

type merge struct {
	a, b int     // node ids: 0..n-1 leaves, n+i for the i-th merge
	dist float64 // linkage distance (or merge score) at which a and b merged
}

// Len returns the number of leaves (input points).
func (d *Dendrogram) Len() int { return d.n }

// MergeDistances returns the linkage distance of each merge in order.
func (d *Dendrogram) MergeDistances() []float64 {
	out := make([]float64, len(d.merges))
	for i, m := range d.merges {
		out[i] = m.dist
	}
	return out
}

// Hierarchical builds an average-linkage (UPGMA) dendrogram over weighted
// points with all cores. Average linkage is monotone: merge distances never
// decrease, so every Cut(K) nests inside Cut(K-1).
func Hierarchical(points [][]float64, weights []float64, dist DistanceFunc) *Dendrogram {
	return HierarchicalP(points, weights, dist, 0)
}

// HierarchicalP is Hierarchical with an explicit worker bound (p ≤ 0 = all
// cores). The O(n²·d) distance-matrix build fans out; the O(n²) merge loop
// itself is serial, so the dendrogram is identical at any parallelism.
func HierarchicalP(points [][]float64, weights []float64, dist DistanceFunc, p int) *Dendrogram {
	n := len(points)
	if n <= 1 {
		return &Dendrogram{n: n}
	}
	if dist == nil {
		dist = MetricFunc(Euclidean, 0)
	}
	return averageLinkage(DistanceMatrix(points, dist, p), weights)
}

// averageLinkage runs Agglomerate over a pre-built distance matrix — the
// stage shared by the dense and binary paths — with the Lance–Williams
// recurrence for weighted average linkage: the distance from a merged
// cluster to any other is the mass-weighted mean of the two constituent
// distances. The dendrogram depends only on the matrix, never on the point
// representation that produced it.
func averageLinkage(dm [][]float64, weights []float64) *Dendrogram {
	mass := make([]float64, len(dm), 2*len(dm))
	for i := range mass {
		if weights != nil {
			mass[i] = weights[i]
		} else {
			mass[i] = 1
		}
	}
	return Agglomerate(dm, func(a, b int) func(int, float64, float64) float64 {
		ma, mb := mass[a], mass[b]
		total := ma + mb
		mass = append(mass, total)
		return func(_ int, da, db float64) float64 { return (ma*da + mb*db) / total }
	})
}

// Agglomerate performs the n−1 greedy merges of a pair-merge clustering over
// n nodes whose pairwise scores are the symmetric matrix s, which it
// consumes as scratch. Nodes live in slots: each step merges the pair of
// slots with the lowest score, the earliest pair in slot order on ties; the
// merged node takes the lower slot and the last slot moves into the higher
// one. join is called once per merge with the node ids of the pair — 0..n−1
// for the input nodes, n+i for the i-th merge — and returns the score of the
// merged node against each remaining node k, given k's scores sa and sb to
// the pair. The dendrogram records every merge at its score.
//
// Each slot caches its lowest-scoring partner among the slots above it, so a
// merge rescans only the two slots it rewrote and the rows whose cached
// partner it moved or rescored: O(n²) work in practice rather than the
// O(n³) of rescanning every pair at every merge, with the identical merge
// order.
func Agglomerate(s [][]float64, join func(a, b int) func(k int, sa, sb float64) float64) *Dendrogram {
	n := len(s)
	d := &Dendrogram{n: n, merges: make([]merge, 0, max(n-1, 0))}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	// nn[i] is the earliest slot j > i with the lowest s[i][j], and nd[i]
	// that score; a row with no finite score keeps j = i+1 at +Inf, which
	// is what a fresh scan returns.
	nn := make([]int, n)
	nd := make([]float64, n)
	rescan := func(i, m int) {
		bj, bd := i+1, math.Inf(1)
		row := s[i]
		for j := i + 1; j < m; j++ {
			if row[j] < bd {
				bj, bd = j, row[j]
			}
		}
		nn[i], nd[i] = bj, bd
	}
	for i := 0; i < n-1; i++ {
		rescan(i, n)
	}
	// offer makes slot j (> i) the cached partner of row i if it scores
	// lower, or equal from an earlier slot.
	offer := func(i, j int) {
		if v := s[i][j]; v < nd[i] || (v == nd[i] && j < nn[i]) {
			nn[i], nd[i] = j, v
		}
	}

	for m := n; m > 1; m-- {
		bi, bd := 0, math.Inf(1)
		for i := 0; i < m-1; i++ {
			if nd[i] < bd {
				bi, bd = i, nd[i]
			}
		}
		bj := nn[bi]
		d.merges = append(d.merges, merge{a: ids[bi], b: ids[bj], dist: bd})

		score := join(ids[bi], ids[bj])
		for k := 0; k < m; k++ {
			if k == bi || k == bj {
				continue
			}
			v := score(ids[k], s[bi][k], s[bj][k])
			s[bi][k] = v
			s[k][bi] = v
		}
		ids[bi] = n + len(d.merges) - 1

		// remove slot bj by moving the last slot into it
		last := m - 1
		ids[bj] = ids[last]
		for k := 0; k < last; k++ {
			s[bj][k] = s[last][k]
			s[k][bj] = s[k][last]
		}
		s[bj][bj] = 0

		// Repair the caches of the m−1 remaining rows. Row bi was rescored
		// and row bj holds a new node, so both rescan, as does any row whose
		// partner was bi (rescored), bj (merged away) or the last slot when
		// that slot moved below it. Every other row keeps its partner unless
		// the rescored slot bi or the moved slot bj now beats it; a partner
		// that moved from the last slot up to bj wins back its row that way.
		for i := 0; i < last; i++ {
			if p := nn[i]; i == bi || i == bj || p == bi || p == bj || (p == last && bj < i) {
				rescan(i, last)
				continue
			}
			if bi > i {
				offer(i, bi)
			}
			if bj > i && bj < last {
				offer(i, bj)
			}
		}
	}
	return d
}

// Cut returns the K-cluster assignment obtained by undoing the last K-1
// merges. K is clamped to [1, Len()].
func (d *Dendrogram) Cut(k int) Assignment {
	n := d.n
	if n == 0 {
		return Assignment{K: max(k, 1)}
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	// union-find over the first n-k merges
	parent := make([]int, n+len(d.merges))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for i := 0; i < n-k; i++ {
		m := d.merges[i]
		node := n + i
		parent[find(m.a)] = node
		parent[find(m.b)] = node
	}
	labels := make([]int, n)
	remap := map[int]int{}
	for i := 0; i < n; i++ {
		r := find(i)
		if _, ok := remap[r]; !ok {
			remap[r] = len(remap)
		}
		labels[i] = remap[r]
	}
	return Assignment{Labels: labels, K: len(remap)}
}
