package cluster

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// agglomerate is the O(n³) average-linkage loop Agglomerate replaced, kept
// verbatim as the oracle: it rescans every active pair at every merge.
func agglomerate(dm [][]float64, weights []float64, n int) *Dendrogram {
	d := &Dendrogram{n: n}
	w := make([]float64, n)
	for i := range w {
		if weights != nil {
			w[i] = weights[i]
		} else {
			w[i] = 1
		}
	}

	// active cluster set with pairwise average-linkage distances,
	// updated with the Lance–Williams recurrence.
	type clust struct {
		id   int // node id in the dendrogram
		mass float64
	}
	active := make([]clust, n)
	for i := range active {
		active[i] = clust{id: i, mass: w[i]}
	}

	nextID := n
	for len(active) > 1 {
		// find closest pair (indices into active/dm)
		bi, bj, bd := 0, 1, math.Inf(1)
		for i := 0; i < len(active); i++ {
			for j := i + 1; j < len(active); j++ {
				if dm[i][j] < bd {
					bi, bj, bd = i, j, dm[i][j]
				}
			}
		}
		mi, mj := active[bi], active[bj]
		d.merges = append(d.merges, merge{a: mi.id, b: mj.id, dist: bd})

		// Lance–Williams update for weighted average linkage: the distance
		// from the merged cluster to any other is the mass-weighted mean of
		// the two constituent distances.
		total := mi.mass + mj.mass
		for k := 0; k < len(active); k++ {
			if k == bi || k == bj {
				continue
			}
			nd := (mi.mass*dm[bi][k] + mj.mass*dm[bj][k]) / total
			dm[bi][k] = nd
			dm[k][bi] = nd
		}
		active[bi] = clust{id: nextID, mass: total}
		nextID++

		// remove bj by swapping with the last element
		last := len(active) - 1
		active[bj] = active[last]
		active = active[:last]
		for k := 0; k < last; k++ {
			dm[bj][k] = dm[last][k]
			dm[k][bj] = dm[k][last]
		}
		dm[bj][bj] = 0
	}
	return d
}

func cloneMatrix(dm [][]float64) [][]float64 {
	out := make([][]float64, len(dm))
	for i, row := range dm {
		out[i] = append([]float64(nil), row...)
	}
	return out
}

// assertSameDendrogram compares merge for merge: node ids and the exact
// linkage distance.
func assertSameDendrogram(t *testing.T, got, want *Dendrogram, ctx string) {
	t.Helper()
	if got.n != want.n || len(got.merges) != len(want.merges) {
		t.Fatalf("%s: %d leaves / %d merges, oracle %d / %d", ctx, got.n, len(got.merges), want.n, len(want.merges))
	}
	for i, m := range want.merges {
		if g := got.merges[i]; g != m {
			t.Fatalf("%s: merge %d is %+v, oracle %+v", ctx, i, g, m)
		}
	}
}

// TestAverageLinkageMatchesCubicOracleOnTies drives the nearest-neighbour
// loop through small integer matrices, where nearly every scan meets a tie,
// so any cache repair that resolves a tie differently from the full rescan
// shows up as a different merge.
func TestAverageLinkageMatchesCubicOracleOnTies(t *testing.T) {
	tieMatrices(func(dm [][]float64, w []float64) {
		want := agglomerate(cloneMatrix(dm), w, len(dm))
		got := averageLinkage(dm, w)
		assertSameDendrogram(t, got, want, "trial")
	})
}

// tieMatrices calls fn with 2000 small symmetric integer matrices, where
// nearly every nearest-neighbour scan meets a tie, and weights (nil in
// every fifth trial).
func tieMatrices(fn func(dm [][]float64, w []float64)) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(40)
		dm := make([][]float64, n)
		for i := range dm {
			dm[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := float64(r.Intn(4))
				dm[i][j], dm[j][i] = v, v
			}
		}
		var w []float64
		if trial%5 != 0 {
			w = make([]float64, n)
			for i := range w {
				w[i] = float64(1 + r.Intn(5))
			}
		}
		fn(dm, w)
	}
}

// TestAgglomerateReadsUpperTriangleOnly pins Agglomerate's contract: with
// every entry on or below the diagonal poisoned with NaN, the tie-heavy
// matrices must still yield the cubic oracle's dendrogram (a NaN read
// anywhere would change a merge or its distance). HierarchicalBinaryP then
// needs only the triangle, so its matrix costs ≈n²/2 floats, not n².
func TestAgglomerateReadsUpperTriangleOnly(t *testing.T) {
	tieMatrices(func(dm [][]float64, w []float64) {
		want := agglomerate(cloneMatrix(dm), w, len(dm))
		for i := range dm {
			for j := 0; j <= i; j++ {
				dm[i][j] = math.NaN()
			}
		}
		assertSameDendrogram(t, averageLinkage(dm, w), want, "poisoned")
	})

	const n = 1000
	pts, _ := randBinary(rand.New(rand.NewSource(41)), n, 400, 7, 400)
	dist := BinaryMetricFunc(Hamming, 0)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	HierarchicalBinaryP(pts, dist, 1)
	runtime.ReadMemStats(&after)
	full := float64(n * n * 8)
	if got := float64(after.TotalAlloc - before.TotalAlloc); got < 0.5*full*(n-1)/n || got > 0.6*full {
		t.Fatalf("HierarchicalBinaryP allocated %.0f bytes for n = %d, want ≈ n²/2 floats (%.0f)", got, n, full/2)
	}
}

// TestHierarchicalBinaryMatchesCubicOracle checks the dendrogram at a
// realistic size: Hamming distances over sparse vectors, the shape of a
// query log's distinct feature vectors.
func TestHierarchicalBinaryMatchesCubicOracle(t *testing.T) {
	pts, _ := randBinary(rand.New(rand.NewSource(37)), 1500, 400, 7, 400)
	dist := BinaryMetricFunc(Hamming, 0)
	want := agglomerate(DistanceMatrixBinary(pts.Vecs, dist, 0), pts.Weights, pts.Len())
	got := HierarchicalBinaryP(pts, dist, 0)
	assertSameDendrogram(t, got, want, "hamming")
}
