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

// averageLinkage runs Agglomerate over the upper triangle of a pre-built
// distance matrix with the Lance–Williams recurrence for weighted average
// linkage (UPGMA): the distance from a merged cluster to any other is the
// mass-weighted mean of the two constituent distances. Average linkage is
// monotone: merge distances never decrease, so every Cut(K) nests inside
// Cut(K-1). The dendrogram depends only on the matrix, never on the point
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

// UpperTriangle returns the rows of an n×n score matrix for Agglomerate over
// one slab of n(n−1)/2+1 floats: s[i][j] is storage of its own only for
// j > i. The entries on and below the diagonal alias the tails of earlier
// rows, so callers write and read the upper triangle alone — the half
// Agglomerate's contract names.
func UpperTriangle(n int) [][]float64 {
	rows := make([][]float64, n)
	if n == 0 {
		return rows
	}
	slab := make([]float64, n*(n-1)/2+1)
	// row i's own entries j = i+1..n−1 start at off, so s[i][j] is
	// slab[off−i−1+j]; off−i−1 ≥ 0 for every i because of the slab's one
	// leading pad float
	off := 1
	for i := range rows {
		lo := off - i - 1
		rows[i] = slab[lo : lo+n : lo+n]
		off += n - i - 1
	}
	return rows
}

// Agglomerate performs the n−1 greedy merges of a pair-merge clustering over
// n nodes whose pairwise scores are the upper triangle of s: the score of
// nodes i < j is s[i][j], and Agglomerate neither reads nor writes any entry
// on or below the diagonal, so s may be a full symmetric matrix or the rows
// of UpperTriangle. It consumes s as scratch. Nodes live in slots: each step
// merges the pair of slots with the lowest score, the earliest pair in slot
// order on ties; the merged node takes the lower slot and the last slot
// moves into the higher one. join is called once per merge with the node ids
// of the pair — 0..n−1 for the input nodes, n+i for the i-th merge — and
// returns the score of the merged node against each remaining node k, in
// ascending slot order, given k's scores sa and sb to the pair. The
// dendrogram records every merge at its score.
//
// Each slot caches its lowest-scoring partner among the slots above it, so a
// merge rescans only the two slots it rewrote and the rows whose cached
// partner it moved or rescored: O(n²) work in practice rather than the
// O(n³) of rescanning every pair at every merge, with the identical merge
// order. A merge rewrites one triangle row and column per slot it touches,
// never a mirrored copy.
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
		bj := nn[bi] // bi < bj
		d.merges = append(d.merges, merge{a: ids[bi], b: ids[bj], dist: bd})

		// rescore the merged node against every other slot k into its
		// triangle entry: column bi above bi, row bi below it
		score := join(ids[bi], ids[bj])
		rowI, rowJ := s[bi], s[bj]
		for k := 0; k < bi; k++ {
			s[k][bi] = score(ids[k], s[k][bi], s[k][bj])
		}
		for k := bi + 1; k < bj; k++ {
			rowI[k] = score(ids[k], rowI[k], s[k][bj])
		}
		for k := bj + 1; k < m; k++ {
			rowI[k] = score(ids[k], rowI[k], rowJ[k])
		}
		ids[bi] = n + len(d.merges) - 1

		// remove slot bj by moving the last slot into it: column last
		// becomes column bj above bj and row bj below it
		last := m - 1
		if bj < last {
			ids[bj] = ids[last]
			for k := 0; k < bj; k++ {
				s[k][bj] = s[k][last]
			}
			for k := bj + 1; k < last; k++ {
				rowJ[k] = s[k][last]
			}
		}

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
