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
	// Dist is the distance used to build the affinity graph; nil defaults
	// to Euclidean. The paper evaluates Manhattan, Minkowski(p=4) and
	// Hamming affinities (Section 6.1).
	Dist cluster.DistanceFunc
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

// Spectral performs normalized spectral clustering (Ng–Jordan–Weiss):
// Gaussian affinity from the chosen distance, symmetric normalized
// Laplacian, the K smallest eigenvectors as an embedding, row
// normalization, then weighted k-means in the embedded space.
//
// The eigendecomposition is dense O(n³); callers with large logs should
// cluster distinct queries (weighted by multiplicity), which is what the
// paper's experiments do. For K sweeps over the same points, build a
// SpectralModel once and call Cluster per K.
func Spectral(points [][]float64, weights []float64, opts SpectralOptions) (cluster.Assignment, error) {
	n := len(points)
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
	m, err := NewSpectralModelP(points, opts.Dist, opts.Sigma, opts.Parallelism)
	if err != nil {
		return cluster.Assignment{}, err
	}
	return m.ClusterP(opts.K, weights, opts.Seed, opts.Parallelism), nil
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

// NewSpectralModel computes the normalized-Laplacian eigenbasis with all
// cores.
func NewSpectralModel(points [][]float64, dist cluster.DistanceFunc, sigma float64) (*SpectralModel, error) {
	return NewSpectralModelP(points, dist, sigma, 0)
}

// NewSpectralModelP is NewSpectralModel with an explicit worker bound
// (p ≤ 0 = all cores). The O(n²) distance, affinity and Laplacian passes
// fan out by row — each row has one writer, and deg[i] accumulates serially
// within its row — so the model is identical at any parallelism.
func NewSpectralModelP(points [][]float64, dist cluster.DistanceFunc, sigma float64, p int) (*SpectralModel, error) {
	n := len(points)
	if n == 0 {
		return &SpectralModel{}, nil
	}
	if dist == nil {
		dist = cluster.MetricFunc(cluster.Euclidean, 0)
	}
	start := time.Now() //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	return newSpectralModelFromDistances(cluster.DistanceMatrix(points, dist, p), sigma, p, start)
}

// newSpectralModelFromDistances runs the affinity → Laplacian → eigensolve
// stages over a pre-built distance matrix — the stage shared by the dense
// and binary paths (the matrix build is the only part that depends on the
// point representation). start is when the caller began the distance-matrix
// build, so BuildTime keeps covering the full distance/affinity/eigen phase.
func newSpectralModelFromDistances(dm [][]float64, sigma float64, p int, start time.Time) (*SpectralModel, error) {
	n := len(dm)
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
	_, vecs, err := linalg.SymEigen(l)
	if err != nil {
		return nil, fmt.Errorf("mining: spectral eigensolve: %w", err)
	}
	return &SpectralModel{n: n, vecs: vecs, BuildTime: time.Since(start)}, nil //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
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

// SpectralBinary is Spectral over packed binary points: the distance matrix
// is built with popcount kernels (bit-identical to the dense build — see
// cluster.BinaryMetricFunc), and the affinity, Laplacian, eigensolve and
// embedding k-means stages are shared with the dense path, so the
// assignment is identical to Spectral on the dense expansion.
//
// The affinity distance comes from the dist parameter (nil = Euclidean);
// the dense-typed opts.Dist field cannot apply to packed vectors and must
// be left nil — setting it panics rather than being silently ignored.
func SpectralBinary(pts cluster.BinaryPoints, dist cluster.BinaryDistanceFunc, opts SpectralOptions) (cluster.Assignment, error) {
	if opts.Dist != nil {
		panic("mining: SpectralBinary takes its distance via the dist parameter; SpectralOptions.Dist must be nil")
	}
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
	m, err := NewSpectralModelBinaryP(pts.Vecs, dist, opts.Sigma, opts.Parallelism)
	if err != nil {
		return cluster.Assignment{}, err
	}
	return m.ClusterP(opts.K, pts.Weights, opts.Seed, opts.Parallelism), nil
}

// NewSpectralModelBinaryP computes the normalized-Laplacian eigenbasis of
// packed binary points with an explicit worker bound (p ≤ 0 = all cores),
// using a popcount distance matrix. nil dist defaults to Euclidean.
func NewSpectralModelBinaryP(vecs []bitvec.Vector, dist cluster.BinaryDistanceFunc, sigma float64, p int) (*SpectralModel, error) {
	if len(vecs) == 0 {
		return &SpectralModel{}, nil
	}
	if dist == nil {
		dist = cluster.BinaryMetricFunc(cluster.Euclidean, 0)
	}
	start := time.Now() //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	return newSpectralModelFromDistances(cluster.DistanceMatrixBinary(vecs, dist, p), sigma, p, start)
}
