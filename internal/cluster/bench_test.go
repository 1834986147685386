package cluster

import (
	"math/rand"
	"testing"

	"logr/internal/bitvec"
)

func benchPoints(n, dim int) ([][]float64, []float64) {
	r := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	w := make([]float64, n)
	for i := range pts {
		p := make([]float64, dim)
		for j := range p {
			if r.Intn(4) == 0 {
				p[j] = 1
			}
		}
		pts[i] = p
		w[i] = float64(1 + r.Intn(100))
	}
	return pts, w
}

func BenchmarkKMeans(b *testing.B) {
	pts, w := benchPoints(605, 863) // PocketData shape
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		KMeans(pts, w, KMeansOptions{K: 10, Seed: int64(i)})
	}
}

// BenchmarkKMeansBinaryVsDense measures the popcount k-means against the
// dense float path on identical PocketData-shaped inputs (same seeds, same
// assignments — see TestKMeansBinaryMatchesDense). Run with -benchmem to see
// the allocation gap.
func BenchmarkKMeansBinaryVsDense(b *testing.B) {
	dense, w := benchPoints(605, 863)
	packed := BinaryPoints{Vecs: make([]bitvec.Vector, len(dense)), Weights: w}
	for i, row := range dense {
		v := bitvec.New(len(row))
		for j, x := range row {
			if x != 0 {
				v.Set(j)
			}
		}
		packed.Vecs[i] = v
	}
	b.Run("dense", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			KMeans(dense, w, KMeansOptions{K: 10, Seed: int64(i)})
		}
	})
	b.Run("binary", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			KMeansBinary(packed, KMeansOptions{K: 10, Seed: int64(i)})
		}
	})
}

func BenchmarkHierarchical(b *testing.B) {
	pts, w := benchPoints(200, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Hierarchical(pts, w, nil)
	}
}

// BenchmarkHierarchicalBinary runs average linkage at the size of a bank
// log's distinct vectors (≈1,700 shapes, ≈7 features each of ≈400), where
// a merge loop that rescans every pair per merge is cubic and dominates.
func BenchmarkHierarchicalBinary(b *testing.B) {
	pts, _ := randBinary(rand.New(rand.NewSource(1)), 1700, 400, 7, 400)
	dist := BinaryMetricFunc(Hamming, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HierarchicalBinaryP(pts, dist, 0)
	}
}

func BenchmarkDistances(b *testing.B) {
	pts, _ := benchPoints(2, 5290)
	for _, m := range []Metric{Euclidean, Manhattan, Minkowski, Hamming} {
		fn := MetricFunc(m, 4)
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(pts[0], pts[1])
			}
		})
	}
}
