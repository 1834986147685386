package cluster

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// twoBlobs returns points drawn near (0,...,0) and (10,...,10).
func twoBlobs(r *rand.Rand, nPer, dim int) ([][]float64, []int) {
	var pts [][]float64
	var truth []int
	for c := 0; c < 2; c++ {
		for i := 0; i < nPer; i++ {
			p := make([]float64, dim)
			for j := range p {
				p[j] = float64(c)*10 + r.NormFloat64()*0.5
			}
			pts = append(pts, p)
			truth = append(truth, c)
		}
	}
	return pts, truth
}

func agreesWithTruth(labels, truth []int) bool {
	// two clusters: check labels are constant within each true group and
	// differ across groups
	m := map[int]int{}
	for i, l := range labels {
		if prev, ok := m[truth[i]]; ok {
			if prev != l {
				return false
			}
		} else {
			m[truth[i]] = l
		}
	}
	return m[0] != m[1]
}

func TestKMeansTwoBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	pts, truth := twoBlobs(r, 20, 4)
	asg := KMeans(pts, nil, KMeansOptions{K: 2, Seed: 1, Restarts: 3})
	if asg.K != 2 {
		t.Fatalf("K = %d, want 2", asg.K)
	}
	if !agreesWithTruth(asg.Labels, truth) {
		t.Error("k-means failed to separate two well-separated blobs")
	}
}

func TestKMeansWeighted(t *testing.T) {
	// A single heavy point must dominate its cluster's centroid: with K=2,
	// the heavy point and the far group should split despite counts.
	pts := [][]float64{{0}, {0.1}, {0.2}, {100}}
	w := []float64{1, 1, 1, 1000}
	asg := KMeans(pts, w, KMeansOptions{K: 2, Seed: 3, Restarts: 3})
	if asg.Labels[3] == asg.Labels[0] {
		t.Error("far heavy point should be its own cluster")
	}
}

func TestKMeansKGreaterThanN(t *testing.T) {
	pts := [][]float64{{0}, {1}, {2}}
	asg := KMeans(pts, nil, KMeansOptions{K: 10, Seed: 1})
	if asg.K != 3 {
		t.Errorf("K = %d, want clamp to 3", asg.K)
	}
}

func TestKMeansDeterministicWithSeed(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	pts, _ := twoBlobs(r, 15, 3)
	a := KMeans(pts, nil, KMeansOptions{K: 3, Seed: 42, Restarts: 2})
	b := KMeans(pts, nil, KMeansOptions{K: 3, Seed: 42, Restarts: 2})
	for i := range a.Labels {
		if a.Labels[i] != b.Labels[i] {
			t.Fatal("same seed produced different clusterings")
		}
	}
}

// Property: every point is closer (in weighted inertia terms) to its own
// centroid than to any other centroid after convergence.
func TestKMeansNearestCentroidProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(30)
		dim := 1 + r.Intn(5)
		pts := make([][]float64, n)
		for i := range pts {
			p := make([]float64, dim)
			for j := range p {
				p[j] = r.Float64() * 10
			}
			pts[i] = p
		}
		k := 2 + r.Intn(3)
		asg := KMeans(pts, nil, KMeansOptions{K: k, Seed: seed})
		// recompute centroids
		cents := make([][]float64, asg.K)
		counts := make([]float64, asg.K)
		for c := range cents {
			cents[c] = make([]float64, dim)
		}
		for i, p := range pts {
			c := asg.Labels[i]
			counts[c]++
			for j, v := range p {
				cents[c][j] += v
			}
		}
		for c := range cents {
			for j := range cents[c] {
				cents[c][j] /= counts[c]
			}
		}
		for i, p := range pts {
			own := sqDist(p, cents[asg.Labels[i]])
			for c := range cents {
				if sqDist(p, cents[c]) < own-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHierarchicalMonotone(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	pts, _ := twoBlobs(r, 10, 3)
	d := Hierarchical(pts, nil, nil)
	dists := d.MergeDistances()
	for i := 1; i < len(dists); i++ {
		if dists[i] < dists[i-1]-1e-9 {
			t.Fatalf("average linkage produced non-monotone merges: %v", dists)
		}
	}
}

// TestHierarchicalNesting: Cut(K+1) must refine Cut(K) — the monotonic
// assignment property the paper wants from hierarchical clustering.
func TestHierarchicalNesting(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	pts, _ := twoBlobs(r, 12, 2)
	d := Hierarchical(pts, nil, nil)
	for k := 1; k < 8; k++ {
		coarse := d.Cut(k)
		fine := d.Cut(k + 1)
		// every fine cluster must map into exactly one coarse cluster
		m := map[int]int{}
		for i := range fine.Labels {
			if prev, ok := m[fine.Labels[i]]; ok {
				if prev != coarse.Labels[i] {
					t.Fatalf("cut %d does not nest in cut %d", k+1, k)
				}
			} else {
				m[fine.Labels[i]] = coarse.Labels[i]
			}
		}
	}
}

func TestHierarchicalCutK(t *testing.T) {
	pts := [][]float64{{0}, {1}, {10}, {11}, {20}}
	d := Hierarchical(pts, nil, nil)
	for k := 1; k <= 5; k++ {
		asg := d.Cut(k)
		if asg.K != k {
			t.Errorf("Cut(%d).K = %d", k, asg.K)
		}
	}
	asg := d.Cut(2)
	if asg.Labels[0] != asg.Labels[1] || asg.Labels[2] != asg.Labels[3] {
		t.Errorf("2-cut grouped wrong: %v", asg.Labels)
	}
}

func TestMetricProperties(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	metrics := []Metric{Euclidean, Manhattan, Minkowski, Hamming, Chebyshev, Canberra}
	for _, m := range metrics {
		fn := MetricFunc(m, 4)
		for trial := 0; trial < 50; trial++ {
			n := 1 + r.Intn(10)
			a, b, c := make([]float64, n), make([]float64, n), make([]float64, n)
			for i := 0; i < n; i++ {
				a[i] = float64(r.Intn(2))
				b[i] = float64(r.Intn(2))
				c[i] = float64(r.Intn(2))
			}
			if fn(a, a) != 0 {
				t.Fatalf("%v: d(a,a) != 0", m)
			}
			if math.Abs(fn(a, b)-fn(b, a)) > 1e-12 {
				t.Fatalf("%v: not symmetric", m)
			}
			if fn(a, c) > fn(a, b)+fn(b, c)+1e-9 {
				t.Fatalf("%v: triangle inequality violated on binary vectors", m)
			}
		}
	}
}

func TestHammingNormalized(t *testing.T) {
	fn := MetricFunc(Hamming, 0)
	a := []float64{1, 1, 0, 0}
	b := []float64{0, 0, 1, 1}
	if got := fn(a, b); got != 1 {
		t.Errorf("fully-mismatched hamming = %g, want 1", got)
	}
	c := []float64{1, 1, 1, 0}
	if got := fn(a, c); got != 0.25 {
		t.Errorf("hamming = %g, want 0.25", got)
	}
}

func TestAssignmentHelpers(t *testing.T) {
	asg := Assignment{Labels: []int{0, 1, 0, 1, 1}, K: 2}
	sizes := asg.Sizes([]float64{1, 2, 3, 4, 5})
	if sizes[0] != 4 || sizes[1] != 11 {
		t.Errorf("Sizes = %v", sizes)
	}
	parts := asg.Partition()
	if len(parts[0]) != 2 || len(parts[1]) != 3 {
		t.Errorf("Partition = %v", parts)
	}
}
