package mining

import (
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

// twoBlobs returns binary points from two workloads over disjoint halves
// of a 2·dim-feature universe: each point sets each feature of its half
// with probability 0.7.
func twoBlobs(r *rand.Rand, nPer, dim int) (cluster.BinaryPoints, []int) {
	var pts cluster.BinaryPoints
	var truth []int
	for c := 0; c < 2; c++ {
		for i := 0; i < nPer; i++ {
			v := bitvec.New(2 * dim)
			for j := 0; j < dim; j++ {
				if r.Intn(10) < 7 {
					v.Set(c*dim + j)
				}
			}
			pts.Vecs = append(pts.Vecs, v)
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

// randBinary builds a random weighted binary point set: num/den is the
// bit density.
func randBinary(r *rand.Rand, n, dim, num, den int) cluster.BinaryPoints {
	pts := cluster.BinaryPoints{Vecs: make([]bitvec.Vector, n), Weights: make([]float64, n)}
	for i := 0; i < n; i++ {
		v := bitvec.New(dim)
		for j := 0; j < dim; j++ {
			if r.Intn(den) < num {
				v.Set(j)
			}
		}
		pts.Vecs[i] = v
		pts.Weights[i] = float64(1 + r.Intn(100))
	}
	return pts
}

func TestSpectralTwoBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts, truth := twoBlobs(r, 15, 10)
	for _, m := range []cluster.Metric{cluster.Manhattan, cluster.Minkowski, cluster.Hamming} {
		asg, err := Spectral(pts, cluster.BinaryMetricFunc(m, 4), SpectralOptions{K: 2, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !agreesWithTruth(asg.Labels, truth) {
			t.Errorf("%v: spectral failed to separate blobs", m)
		}
	}
}

func TestSpectralHammingOnBinary(t *testing.T) {
	// two binary "workloads" with disjoint features
	var pts cluster.BinaryPoints
	var truth []int
	for i := 0; i < 10; i++ {
		a := bitvec.FromIndices(6, 0, 1)
		b := bitvec.FromIndices(6, 4, 5)
		if i%2 == 0 {
			a.Set(2)
			b.Set(3)
		}
		pts.Vecs = append(pts.Vecs, a, b)
		truth = append(truth, 0, 1)
	}
	asg, err := Spectral(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), SpectralOptions{K: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !agreesWithTruth(asg.Labels, truth) {
		t.Error("hamming spectral failed on disjoint binary workloads")
	}
}

func TestSpectralDeterministicAcrossParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pts := randBinary(r, 60, 80, 1, 4)
	want, err := Spectral(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), SpectralOptions{K: 6, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := Spectral(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), SpectralOptions{K: 6, Seed: 7, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: spectral labels differ from serial", par)
		}
	}
}

func BenchmarkSpectralModelBuild(b *testing.B) {
	pts := randBinary(rand.New(rand.NewSource(1)), 200, 100, 1, 4)
	dist := cluster.BinaryMetricFunc(cluster.Hamming, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSpectralModel(pts.Vecs, dist, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectralCut(b *testing.B) {
	pts := randBinary(rand.New(rand.NewSource(1)), 200, 100, 1, 4)
	m, err := NewSpectralModel(pts.Vecs, cluster.BinaryMetricFunc(cluster.Hamming, 0), 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Cluster(8, pts.Weights, int64(i))
	}
}
