package cluster

import (
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
// agreement with the dense MetricFunc on random universes and densities —
// the guarantee that makes the binary spectral/hierarchical paths identical
// end to end.
func TestBinaryMetricMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	metrics := []Metric{Euclidean, Manhattan, Minkowski, Hamming, Chebyshev, Canberra}
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
			want := MetricFunc(m, p)(da, db)
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
	for _, m := range []Metric{Euclidean, Manhattan, Minkowski, Hamming} {
		want := DistanceMatrix(dense, MetricFunc(m, 4), 1)
		for _, par := range []int{1, 4} {
			got := DistanceMatrixBinary(pts.Vecs, BinaryMetricFunc(m, 4), par)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v (par=%d): binary distance matrix differs from dense", m, par)
			}
		}
	}
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

// TestKMeansBinaryWarmMatchesDense checks the warm-start path (fractional
// caller-supplied centroids, no RNG) against the dense warm start.
func TestKMeansBinaryWarmMatchesDense(t *testing.T) {
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
		for _, maxIter := range []int{1, 0} {
			want := KMeans(dense, pts.Weights, KMeansOptions{InitCentroids: cents, MaxIter: maxIter, Parallelism: 1})
			got := KMeansBinary(pts, KMeansOptions{InitCentroids: cents, MaxIter: maxIter, Parallelism: 1})
			if got.K != want.K || !reflect.DeepEqual(got.Labels, want.Labels) {
				t.Fatalf("n=%d dim=%d k=%d maxIter=%d: warm binary labels differ from dense", n, dim, k, maxIter)
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
	want := HierarchicalP(dense, pts.Weights, MetricFunc(Euclidean, 0), 1)
	got := HierarchicalBinaryP(pts, BinaryMetricFunc(Euclidean, 0), 1)
	if want.Len() != got.Len() {
		t.Fatalf("leaf count: %d vs %d", got.Len(), want.Len())
	}
	if !reflect.DeepEqual(got.MergeDistances(), want.MergeDistances()) {
		t.Fatal("binary dendrogram merge distances differ from dense")
	}
	for _, k := range []int{1, 2, 5, 20, 80} {
		a, b := got.Cut(k), want.Cut(k)
		if a.K != b.K || !reflect.DeepEqual(a.Labels, b.Labels) {
			t.Fatalf("Cut(%d): binary labels differ from dense", k)
		}
	}
}
