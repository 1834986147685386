package mining

import (
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
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

// randBinary builds matched packed/dense views of a random weighted point
// set: num/den is the bit density.
func randBinary(r *rand.Rand, n, dim, num, den int) (cluster.BinaryPoints, [][]float64) {
	pts := cluster.BinaryPoints{Vecs: make([]bitvec.Vector, n), Weights: make([]float64, n)}
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

func TestSpectralTwoBlobs(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	pts, truth := twoBlobs(r, 15, 3)
	for _, m := range []cluster.Metric{cluster.Euclidean, cluster.Manhattan, cluster.Minkowski, cluster.Hamming} {
		asg, err := Spectral(pts, nil, SpectralOptions{K: 2, Dist: cluster.MetricFunc(m, 4), Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if m == cluster.Hamming {
			// real-valued blobs have all-distinct coordinates; hamming is
			// degenerate here, only check it runs.
			continue
		}
		if !agreesWithTruth(asg.Labels, truth) {
			t.Errorf("%v: spectral failed to separate blobs", m)
		}
	}
}

func TestSpectralHammingOnBinary(t *testing.T) {
	// two binary "workloads" with disjoint features
	var pts [][]float64
	var truth []int
	for i := 0; i < 10; i++ {
		a := []float64{1, 1, 0, 0, 0, 0}
		b := []float64{0, 0, 0, 0, 1, 1}
		if i%2 == 0 {
			a[2] = 1
			b[3] = 1
		}
		pts = append(pts, a, b)
		truth = append(truth, 0, 1)
	}
	asg, err := Spectral(pts, nil, SpectralOptions{K: 2, Dist: cluster.MetricFunc(cluster.Hamming, 0), Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !agreesWithTruth(asg.Labels, truth) {
		t.Error("hamming spectral failed on disjoint binary workloads")
	}
}

func TestSpectralBinaryMatchesDense(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	pts, dense := randBinary(r, 60, 80, 1, 4)
	for _, m := range []cluster.Metric{cluster.Hamming, cluster.Euclidean} {
		want, err := Spectral(dense, pts.Weights, SpectralOptions{K: 4, Dist: cluster.MetricFunc(m, 0), Seed: 7, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		got, err := SpectralBinary(pts, cluster.BinaryMetricFunc(m, 0), SpectralOptions{K: 4, Seed: 7, Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got.K != want.K || !reflect.DeepEqual(got.Labels, want.Labels) {
			t.Errorf("%v: binary spectral labels differ from dense", m)
		}
	}
}

func TestSpectralDeterministicAcrossParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	pts, _ := randBinary(r, 60, 80, 1, 4)
	want, err := SpectralBinary(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), SpectralOptions{K: 6, Seed: 7, Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 4, 8} {
		got, err := SpectralBinary(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), SpectralOptions{K: 6, Seed: 7, Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("parallelism %d: spectral labels differ from serial", par)
		}
	}
}

func BenchmarkSpectralModelBuild(b *testing.B) {
	_, pts := randBinary(rand.New(rand.NewSource(1)), 200, 100, 1, 4)
	dist := cluster.MetricFunc(cluster.Hamming, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewSpectralModel(pts, dist, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpectralCut(b *testing.B) {
	packed, pts := randBinary(rand.New(rand.NewSource(1)), 200, 100, 1, 4)
	m, err := NewSpectralModel(pts, cluster.MetricFunc(cluster.Hamming, 0), 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Cluster(8, packed.Weights, int64(i))
	}
}
