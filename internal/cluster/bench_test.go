package cluster

import (
	"fmt"
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

// BenchmarkKMeansBinaryTies runs k-means at the bank log's shape (≈1,700
// distinct vectors over 400 features drawn from 48 family pools), where
// most points meet an exact integer tie between binary centroids in
// Lloyd's first iteration; K = 8 is the served size, K = 30 the batch one.
func BenchmarkKMeansBinaryTies(b *testing.B) {
	pts := bankShaped(rand.New(rand.NewSource(1)), 1700, 400, 48)
	for _, k := range []int{8, 30} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				KMeansBinary(pts, KMeansOptions{K: k, Seed: 1})
			}
		})
	}
}

// BenchmarkAgglomerate times the merge engine alone: average linkage over a
// pre-built Hamming triangle of the bank-shaped vectors, copied afresh
// outside the timer before each run because Agglomerate consumes it.
func BenchmarkAgglomerate(b *testing.B) {
	pts := bankShaped(rand.New(rand.NewSource(1)), 1700, 400, 48)
	n, dist := pts.Len(), BinaryMetricFunc(Hamming, 0)
	src, s := UpperTriangle(n), UpperTriangle(n)
	for i := range src {
		for j := i + 1; j < n; j++ {
			src[i][j] = dist(pts.Vecs[i], pts.Vecs[j])
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for r := range s {
			copy(s[r][r+1:], src[r][r+1:])
		}
		b.StartTimer()
		averageLinkage(s, pts.Weights)
	}
}

func BenchmarkDistances(b *testing.B) {
	pts, _ := randBinary(rand.New(rand.NewSource(1)), 2, 5290, 1, 4)
	for _, m := range []Metric{Manhattan, Minkowski, Hamming} {
		fn := BinaryMetricFunc(m, 4)
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn(pts.Vecs[0], pts.Vecs[1])
			}
		})
	}
}
