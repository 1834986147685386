package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
)

// randBinary builds matched packed/dense views of a random weighted point
// set: num/den is the bit density.
func randBinary(r *rand.Rand, n, dim, num, den int) (BinaryPoints, [][]float64) {
	pts := BinaryPoints{Vecs: make([]bitvec.Vector, n), Weights: make([]float64, n)}
	dense := make([][]float64, n)
	for i := 0; i < n; i++ {
		v := bitvec.New(dim)
		for j := 0; j < dim; j++ {
			if r.Intn(den) < num {
				v.Set(j)
			}
		}
		pts.Vecs[i] = v
		dense[i] = v.Dense()
		pts.Weights[i] = float64(1 + r.Intn(100))
	}
	return pts, dense
}

// TestBinaryMetricMatchesDense pins every popcount metric to bit-exact
// agreement with its dense formula on random universes and densities —
// the guarantee that makes the binary spectral/hierarchical paths identical
// end to end.
func TestBinaryMetricMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	metrics := []Metric{Manhattan, Minkowski, Hamming}
	for trial := 0; trial < 40; trial++ {
		dim := 1 + r.Intn(250)
		a := bitvec.New(dim)
		b := bitvec.New(dim)
		num := 1 + r.Intn(4)
		for j := 0; j < dim; j++ {
			if r.Intn(4) < num {
				a.Set(j)
			}
			if r.Intn(4) < num {
				b.Set(j)
			}
		}
		da, db := a.Dense(), b.Dense()
		for _, m := range metrics {
			p := float64(2 + r.Intn(4))
			want := denseMetricFunc(m, p)(da, db)
			got := BinaryMetricFunc(m, p)(a, b)
			if got != want {
				t.Errorf("dim=%d %v(p=%v): binary = %v, dense = %v", dim, m, p, got, want)
			}
		}
	}
}

func TestDistanceMatrixBinaryMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	pts, dense := randBinary(r, 40, 120, 1, 4)
	for _, m := range []Metric{Manhattan, Minkowski, Hamming} {
		want := denseDistanceMatrix(dense, denseMetricFunc(m, 4))
		for _, par := range []int{1, 4} {
			got := DistanceMatrixBinary(pts.Vecs, BinaryMetricFunc(m, 4), par)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v (par=%d): binary distance matrix differs from dense", m, par)
			}
		}
	}
}

// scorerCases scores a random sparse q against k random centroids whose
// coordinates coord draws, and calls check with each centroid's score from
// scoreAll and score and its bit-exact dense distance (bitvec.SqDist).
func scorerCases(t *testing.T, seed int64, coord func(*rand.Rand) float64, check func(all, one, dense float64)) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 100; trial++ {
		n, k := 1+r.Intn(200), 1+r.Intn(8)
		pts, _ := randBinary(r, 1, n, 1+r.Intn(4), 4)
		q := pts.Vecs[0]
		cents := make([][]float64, k)
		for c := range cents {
			cents[c] = make([]float64, n)
			for j := range cents[c] {
				cents[c][j] = coord(r)
			}
		}
		s := newBinaryScorer(k, n)
		s.refresh(cents)
		scores := make([]float64, k)
		s.scoreAll(q, scores)
		for c, cent := range cents {
			check(scores[c], s.score(q, c), q.SqDist(cent))
		}
	}
}

// TestSparseScoreIdentityExactOnDyadics pins the Lloyd scoring identity
// ‖q−c‖² = ‖c‖² + Σ_{i∈q}(1−2c_i) down to bit-exactness when the centroid
// coordinates are dyadic rationals (exactly representable, with exactly
// representable squares) — the regime covering binary centroids, whose
// scores the assignment step therefore never re-checks.
func TestSparseScoreIdentityExactOnDyadics(t *testing.T) {
	scorerCases(t, 11, func(r *rand.Rand) float64 { return float64(r.Intn(9)) / 8 }, func(all, one, dense float64) {
		if all != dense || one != dense {
			t.Fatalf("sparse scores %v (all) / %v (one), dense ‖q−c‖² = %v", all, one, dense)
		}
	})
}

// TestSparseScoreIdentityCloseOnFloats checks the identity against the dense
// sum for arbitrary float centroids, where only near-equality (last-ulp
// rounding) is guaranteed, and that scoring all centroids at once builds
// each sum exactly as scoring one does.
func TestSparseScoreIdentityCloseOnFloats(t *testing.T) {
	scorerCases(t, 12, (*rand.Rand).Float64, func(all, one, dense float64) {
		if all != one || math.Abs(all-dense) > 1e-9*(1+dense) {
			t.Fatalf("sparse scores %v (all) / %v (one), dense ‖q−c‖² = %v", all, one, dense)
		}
	})
}

// TestKMeansBinaryMatchesDense is the equal-assignment oracle: for a range
// of shapes, densities, Ks and seeds, the popcount k-means must produce the
// exact labeling of the dense-float k-means, at any parallelism.
func TestKMeansBinaryMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 12; trial++ {
		n := 20 + r.Intn(120)
		dim := 10 + r.Intn(200)
		k := 1 + r.Intn(10)
		seed := r.Int63()
		pts, dense := randBinary(r, n, dim, 1+r.Intn(3), 4)
		want := KMeans(dense, pts.Weights, KMeansOptions{K: k, Seed: seed, Restarts: 3, Parallelism: 1})
		for _, par := range []int{1, 4} {
			got := KMeansBinary(pts, KMeansOptions{K: k, Seed: seed, Restarts: 3, Parallelism: par})
			if got.K != want.K || !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("n=%d dim=%d k=%d seed=%d par=%d: binary labels differ from dense", n, dim, k, seed, par)
			}
		}
	}
}

// TestKMeansBinaryMatchesDenseNearTies hammers the regime where the sparse
// score identity alone is NOT enough: tiny shapes with large K produce
// fractional centroids at rounding-level near-ties and frequent
// empty-cluster re-seeds. The exact-arithmetic fallbacks (tieEps re-scan,
// SqDist re-seed selection, exact inertia) must keep every trial identical
// to the dense path — before they existed, ~1/4000 of these trials diverged.
func TestKMeansBinaryMatchesDenseNearTies(t *testing.T) {
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		n := 5 + r.Intn(20)
		dim := 4 + r.Intn(12)
		k := 2 + r.Intn(9)
		seed := r.Int63()
		pts, dense := randBinary(r, n, dim, 1+r.Intn(3), 4)
		want := KMeans(dense, pts.Weights, KMeansOptions{K: k, Seed: seed, Restarts: 2, Parallelism: 1})
		got := KMeansBinary(pts, KMeansOptions{K: k, Seed: seed, Restarts: 2, Parallelism: 1})
		if got.K != want.K || !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Fatalf("trial %d (n=%d dim=%d k=%d seed=%d): binary labels differ from dense", trial, n, dim, k, seed)
		}
	}
}

// bankShaped builds n distinct weighted vectors over dim features shaped
// like a bank log's distinct queries: each takes 4–7 features from one of
// `pools` family pools (dim/pools contiguous features each), so pairwise
// Hamming distances take a handful of integer values and Lloyd's assignment
// meets exact ties between binary centroids at every turn.
func bankShaped(r *rand.Rand, n, dim, pools int) BinaryPoints {
	pts := BinaryPoints{Vecs: make([]bitvec.Vector, 0, n), Weights: make([]float64, 0, n)}
	size := dim / pools
	seen := map[string]bool{}
	for len(pts.Vecs) < n {
		v := bitvec.New(dim)
		base := r.Intn(pools) * size
		for _, j := range r.Perm(size)[:min(4+r.Intn(4), size)] {
			v.Set(base + j)
		}
		if k := v.Key(); !seen[k] {
			seen[k] = true
			pts.Vecs = append(pts.Vecs, v)
			pts.Weights = append(pts.Weights, float64(1+r.Intn(1000)))
		}
	}
	return pts
}

// TestKMeansBinaryMatchesDenseOnIntegerTies pins the skipped re-check: a
// binary centroid's sparse score is the exact Hamming distance, so integer
// ties between binary centroids resolve without bitvec.SqDist, and only
// fractional centroids inside the tie band are re-scored. On bank-shaped
// inputs, where such ties are the rule, every K from 2 to n must still
// label exactly as the dense k-means does, at any parallelism.
func TestKMeansBinaryMatchesDenseOnIntegerTies(t *testing.T) {
	check := func(pts BinaryPoints, k int, seed int64) {
		t.Helper()
		dense := dense4(pts)
		want := KMeans(dense, pts.Weights, KMeansOptions{K: k, Seed: seed, Parallelism: 1})
		for _, par := range []int{1, 0} {
			got := KMeansBinary(pts, KMeansOptions{K: k, Seed: seed, Parallelism: par})
			if got.K != want.K || !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("n=%d k=%d seed=%d par=%d: binary labels differ from dense", pts.Len(), k, seed, par)
			}
		}
	}
	seeds := 200
	if testing.Short() {
		seeds = 40
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		r := rand.New(rand.NewSource(seed))
		pts := bankShaped(r, 40+r.Intn(80), 96, 12)
		n := pts.Len()
		for _, k := range []int{2, 8, 30, n / 2, n} {
			check(pts, k, seed)
		}
	}
	if !testing.Short() {
		// the bank log's own size: ≈1,700 distinct vectors over 400 features
		pts := bankShaped(rand.New(rand.NewSource(1)), 1700, 400, 48)
		for _, k := range []int{2, 8, 30} {
			check(pts, k, 1)
		}
	}
}

// nearestDense is NearestBinary's oracle: the strict-< argmin of the dense
// squared distance, the earliest centroid on a tie.
func nearestDense(points, cents [][]float64) []int {
	labels := make([]int, len(points))
	for i, p := range points {
		bd := math.Inf(1)
		for c, cent := range cents {
			if d := sqDist(p, cent); d < bd {
				labels[i], bd = c, d
			}
		}
	}
	return labels
}

// TestNearestBinaryMatchesDenseOnFractionalTies: a fractional centroid
// inside the tie band next to a binary one. q = {1,2} is at squared
// distance exactly 2 from the binary centroid {1,2,3,4} and, densely, from
// (⅔,1,⅔,1,⅔) too, but that centroid's sparse score rounds to 2−2⁻⁵². The
// dense argmin keeps the earlier centroid on the tie; only the re-check of
// the fractional score gets there too.
func TestNearestBinaryMatchesDenseOnFractionalTies(t *testing.T) {
	const dim = 5
	q, b, far := bitvec.New(dim), bitvec.New(dim), bitvec.New(dim)
	for _, j := range []int{1, 2} {
		q.Set(j)
	}
	for _, j := range []int{1, 2, 3, 4} {
		b.Set(j)
	}
	far.Set(0)
	frac := []float64{2.0 / 3, 1, 2.0 / 3, 1, 2.0 / 3}
	pts := []bitvec.Vector{q, far}
	for _, cents := range [][][]float64{{b.Dense(), frac, far.Dense()}, {frac, b.Dense(), far.Dense()}} {
		s := newBinaryScorer(len(cents), dim)
		s.refresh(cents)
		scores := make([]float64, len(cents))
		s.scoreAll(q, scores)
		if _, bd, _ := argmin2(scores); !s.exactTies(q, cents, scores, bd) {
			t.Fatalf("centroids %v: the fractional tie was not re-checked", cents)
		}
		want := nearestDense([][]float64{q.Dense(), far.Dense()}, cents)
		for _, par := range []int{1, 0} {
			if got := NearestBinary(pts, cents, par); !reflect.DeepEqual(got, want) {
				t.Fatalf("centroids %v par=%d: binary labels %v, dense %v", cents, par, got, want)
			}
		}
	}
}

// TestNearestBinaryMatchesDense checks NearestBinary against the dense
// argmin on random fractional centroids.
func TestNearestBinaryMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 10; trial++ {
		n := 10 + r.Intn(60)
		dim := 10 + r.Intn(100)
		k := 1 + r.Intn(5)
		pts, dense := randBinary(r, n, dim, 1, 3)
		cents := make([][]float64, k)
		for c := range cents {
			cents[c] = make([]float64, dim)
			for j := range cents[c] {
				cents[c][j] = r.Float64()
			}
		}
		want := nearestDense(dense, cents)
		for _, par := range []int{1, 0} {
			if got := NearestBinary(pts.Vecs, cents, par); !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d dim=%d k=%d par=%d: binary labels differ from dense", n, dim, k, par)
			}
		}
	}
}

// TestKMeansBinaryDeterministicAcrossParallelism exercises the Hamerly
// bounds and chunked reductions under concurrency (the race detector covers
// this run in CI) and pins the parallelism-independence contract.
func TestKMeansBinaryDeterministicAcrossParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts, _ := randBinary(r, 600, 200, 1, 4)
	base := KMeansBinary(pts, KMeansOptions{K: 8, Seed: 42, Restarts: 3, Parallelism: 1})
	for _, par := range []int{2, 4, 8, 0} {
		got := KMeansBinary(pts, KMeansOptions{K: 8, Seed: 42, Restarts: 3, Parallelism: par})
		if !reflect.DeepEqual(got, base) {
			t.Fatalf("parallelism %d changed the binary k-means result", par)
		}
	}
}

func TestKMeansBinaryEdgeCases(t *testing.T) {
	if asg := KMeansBinary(BinaryPoints{}, KMeansOptions{K: 3}); len(asg.Labels) != 0 || asg.K != 3 {
		t.Errorf("empty input: got %+v", asg)
	}
	pts, _ := randBinary(rand.New(rand.NewSource(1)), 4, 32, 1, 2)
	if asg := KMeansBinary(pts, KMeansOptions{K: 0}); asg.K != 1 {
		t.Errorf("K=0: got K=%d", asg.K)
	}
	// K ≥ n: every distinct point its own cluster, matching dense behavior
	want := KMeans(dense4(pts), pts.Weights, KMeansOptions{K: 9, Seed: 2})
	got := KMeansBinary(pts, KMeansOptions{K: 9, Seed: 2})
	if got.K != want.K || !reflect.DeepEqual(got.Labels, want.Labels) {
		t.Errorf("K>n: binary %+v vs dense %+v", got, want)
	}
}

func dense4(pts BinaryPoints) [][]float64 {
	out := make([][]float64, pts.Len())
	for i, v := range pts.Vecs {
		out[i] = v.Dense()
	}
	return out
}

func TestHierarchicalBinaryMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pts, dense := randBinary(r, 80, 60, 1, 3)
	for _, m := range []Metric{Manhattan, Minkowski, Hamming} {
		want := denseHierarchical(dense, pts.Weights, denseMetricFunc(m, 4))
		got := HierarchicalBinaryP(pts, BinaryMetricFunc(m, 4), 1)
		if want.Len() != got.Len() {
			t.Fatalf("%v: leaf count: %d vs %d", m, got.Len(), want.Len())
		}
		if !reflect.DeepEqual(got.MergeDistances(), want.MergeDistances()) {
			t.Fatalf("%v: binary dendrogram merge distances differ from dense", m)
		}
		for _, k := range []int{1, 2, 5, 20, 80} {
			a, b := got.Cut(k), want.Cut(k)
			if a.K != b.K || !reflect.DeepEqual(a.Labels, b.Labels) {
				t.Fatalf("%v Cut(%d): binary labels differ from dense", m, k)
			}
		}
	}
}
