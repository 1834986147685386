package mining

import (
	"fmt"
	"math"
	"sort"
	"time"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/linalg"
	"logr/internal/parallel"
)

// Spectral clustering is the third partitioning method Section 6.1
// compares (Figure 2): the affinity graph of the distinct vectors under one
// of the paper's distances, the normalized Laplacian's eigenbasis, and
// k-means in the embedded space. Compress partitions with k-means or
// average linkage; spectral runs only in the figure drivers.

// SpectralOptions configure normalized spectral clustering.
type SpectralOptions struct {
	K int
	// Sigma is the Gaussian kernel bandwidth; ≤ 0 selects the median
	// pairwise distance heuristic.
	Sigma float64
	// Seed feeds the k-means stage on the spectral embedding.
	Seed int64
	// Parallelism bounds the worker count (≤ 0 = all cores). The distance
	// matrix, affinity/Laplacian build and the k-means stage fan out; the
	// eigensolve stays serial, so results are identical at any parallelism.
	Parallelism int
}

// Spectral performs normalized spectral clustering (Ng–Jordan–Weiss) of
// packed binary points: Gaussian affinity from dist (the paper evaluates
// Manhattan, Minkowski(p=4) and Hamming, Section 6.1), symmetric
// normalized Laplacian, the K smallest eigenvectors as an embedding, row
// normalization, then weighted k-means in the embedded space.
//
// The eigendecomposition is dense O(n³); callers with large logs should
// cluster distinct queries (weighted by multiplicity), which is what the
// paper's experiments do. For K sweeps over the same points, build a
// SpectralModel once and call Cluster per K.
func Spectral(pts cluster.BinaryPoints, dist cluster.BinaryDistanceFunc, opts SpectralOptions) (cluster.Assignment, error) {
	n := pts.Len()
	if n == 0 || opts.K <= 0 {
		return cluster.Assignment{Labels: make([]int, n), K: max(opts.K, 1)}, nil
	}
	if opts.K >= n {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return cluster.Assignment{Labels: labels, K: n}, nil
	}
	m, err := NewSpectralModel(pts.Vecs, dist, opts.Sigma, opts.Parallelism)
	if err != nil {
		return cluster.Assignment{}, err
	}
	return m.ClusterP(opts.K, pts.Weights, opts.Seed, opts.Parallelism), nil
}

// SpectralModel caches the Laplacian eigendecomposition of a point set so
// that clusterings at many K (as in the paper's Figure 2 sweeps) pay the
// O(n³) eigensolve once.
type SpectralModel struct {
	n    int
	vecs *linalg.Matrix // eigenvectors as columns, ascending eigenvalue
	// BuildTime is the wall time of the distance/affinity/eigen phase —
	// the dominant cost a standalone spectral run would pay per K.
	BuildTime time.Duration
}

// NewSpectralModel computes the normalized-Laplacian eigenbasis of packed
// binary points under dist with up to p workers (p ≤ 0 = all cores). The
// O(n²) popcount distance, affinity and Laplacian passes fan out by row —
// each row has one writer, and deg[i] accumulates serially within its row —
// so the model is identical at any parallelism.
func NewSpectralModel(vecs []bitvec.Vector, dist cluster.BinaryDistanceFunc, sigma float64, p int) (*SpectralModel, error) {
	n := len(vecs)
	if n == 0 {
		return &SpectralModel{}, nil
	}
	start := time.Now() //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	dm := cluster.DistanceMatrixBinary(vecs, dist, p)
	if sigma <= 0 {
		sigma = medianPositive(dm)
		if sigma == 0 {
			sigma = 1
		}
	}
	// affinity and degree
	w := linalg.NewMatrix(n, n)
	deg := make([]float64, n)
	parallel.For(n, p, func(i int) {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			a := math.Exp(-dm[i][j] * dm[i][j] / (2 * sigma * sigma))
			w.Set(i, j, a)
			deg[i] += a
		}
	})
	// L_sym = I - D^{-1/2} W D^{-1/2}
	l := linalg.NewMatrix(n, n)
	parallel.For(n, p, func(i int) {
		l.Set(i, i, 1)
		if deg[i] == 0 {
			return
		}
		for j := 0; j < n; j++ {
			if i == j || deg[j] == 0 {
				continue
			}
			l.Set(i, j, -w.At(i, j)/math.Sqrt(deg[i]*deg[j]))
		}
	})
	_, eig, err := linalg.SymEigen(l)
	if err != nil {
		return nil, fmt.Errorf("mining: spectral eigensolve: %w", err)
	}
	return &SpectralModel{n: n, vecs: eig, BuildTime: time.Since(start)}, nil //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
}

// Cluster embeds the points into the K smallest eigenvectors (rows
// normalized) and k-means them with all cores.
func (m *SpectralModel) Cluster(k int, weights []float64, seed int64) cluster.Assignment {
	return m.ClusterP(k, weights, seed, 0)
}

// ClusterP is Cluster with an explicit worker bound (p ≤ 0 = all cores).
func (m *SpectralModel) ClusterP(k int, weights []float64, seed int64, p int) cluster.Assignment {
	n := m.n
	if n == 0 || k <= 0 {
		return cluster.Assignment{Labels: make([]int, n), K: max(k, 1)}
	}
	if k >= n {
		labels := make([]int, n)
		for i := range labels {
			labels[i] = i
		}
		return cluster.Assignment{Labels: labels, K: n}
	}
	embed := make([][]float64, n)
	parallel.For(n, p, func(i int) {
		row := make([]float64, k)
		norm := 0.0
		for c := 0; c < k; c++ {
			row[c] = m.vecs.At(i, c)
			norm += row[c] * row[c]
		}
		if norm > 0 {
			norm = math.Sqrt(norm)
			for c := range row {
				row[c] /= norm
			}
		}
		embed[i] = row
	})
	return cluster.KMeans(embed, weights, cluster.KMeansOptions{K: k, Seed: seed, Restarts: 3, Parallelism: p})
}

func medianPositive(dm [][]float64) float64 {
	var vals []float64
	for i := range dm {
		for j := i + 1; j < len(dm); j++ {
			if dm[i][j] > 0 {
				vals = append(vals, dm[i][j])
			}
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[len(vals)/2]
}
