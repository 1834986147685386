// Package cluster implements the partitioning methods Compress uses to
// construct naive mixture encodings (Section 6.1 of the paper): weighted
// k-means with k-means++ seeding and average-linkage hierarchical
// clustering (the monotone alternative the paper suggests for dynamic
// Error/Verbosity control), under the six distance measures the paper
// evaluates (Manhattan, Minkowski, Hamming, Euclidean, Chebyshev,
// Canberra). Spectral clustering, the third method of Section 6.1, runs
// only in the figure drivers and lives in package mining.
//
// Points come in two representations. The default pipeline path feeds
// word-packed binary vectors (BinaryPoints) straight into popcount-native
// kernels — KMeansBinary, HierarchicalBinaryP — which never materialize
// dense rows (see binary.go for the kernel design and its equivalence
// guarantees). Dense [][]float64 entry points remain for non-binary inputs
// (spectral embeddings, research data) and as the oracle the binary
// kernels are tested against. Either way each point carries a weight — the
// multiplicity of a distinct query in the log — so clustering distinct
// vectors is exactly equivalent to clustering the full log.
package cluster

import (
	"fmt"
	"math"

	"logr/internal/parallel"
)

// Metric enumerates the built-in distance measures.
type Metric int

// Supported metrics (Section 6.1 plus footnote 1).
const (
	Euclidean Metric = iota
	Manhattan
	Minkowski // parameterized by P (the paper uses p = 4)
	Hamming
	Chebyshev
	Canberra
)

func (m Metric) String() string {
	switch m {
	case Euclidean:
		return "euclidean"
	case Manhattan:
		return "manhattan"
	case Minkowski:
		return "minkowski"
	case Hamming:
		return "hamming"
	case Chebyshev:
		return "chebyshev"
	case Canberra:
		return "canberra"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
}

// DistanceFunc computes the distance between two equal-length vectors.
type DistanceFunc func(a, b []float64) float64

// MetricFunc returns the DistanceFunc for m; p is the Minkowski exponent
// and is ignored by the other metrics. The returned funcs are package-level
// (the parameterless metrics share one static func each, and Minkowski binds
// only its exponent), so a MetricFunc call never allocates a fresh closure —
// distance-matrix builds that resolve the metric per row or per candidate K
// stay allocation-free in their inner loops.
func MetricFunc(m Metric, p float64) DistanceFunc {
	switch m {
	case Euclidean:
		return euclideanDist
	case Manhattan:
		return manhattanDist
	case Minkowski:
		if p <= 0 {
			p = 4
		}
		return minkowskiExp(p).dist
	case Hamming:
		return hammingDist
	case Chebyshev:
		return chebyshevDist
	case Canberra:
		return canberraDist
	}
	panic("cluster: unknown metric")
}

func euclideanDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

func manhattanDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Abs(a[i] - b[i])
	}
	return s
}

// minkowskiExp carries the Minkowski exponent; its method value is the only
// metric that binds a parameter.
type minkowskiExp float64

func (p minkowskiExp) dist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += math.Pow(math.Abs(a[i]-b[i]), float64(p))
	}
	return math.Pow(s, 1/float64(p))
}

// hammingDist is Count(x≠y) / (Count(x≠y) + Count(x=y)) — the normalized
// form in Section 6.1, which equals mismatches/length for equal-length
// vectors.
func hammingDist(a, b []float64) float64 {
	if len(a) == 0 {
		return 0
	}
	ne := 0
	for i := range a {
		if a[i] != b[i] {
			ne++
		}
	}
	return float64(ne) / float64(len(a))
}

func chebyshevDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > s {
			s = d
		}
	}
	return s
}

func canberraDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		den := math.Abs(a[i]) + math.Abs(b[i])
		if den > 0 {
			s += math.Abs(a[i]-b[i]) / den
		}
	}
	return s
}

// Assignment maps each input point to a cluster in [0, K).
type Assignment struct {
	Labels []int
	K      int
}

// Sizes returns the weighted size of each cluster.
func (a Assignment) Sizes(weights []float64) []float64 {
	out := make([]float64, a.K)
	for i, l := range a.Labels {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		out[l] += w
	}
	return out
}

// Partition groups point indices by cluster label.
func (a Assignment) Partition() [][]int {
	out := make([][]int, a.K)
	for i, l := range a.Labels {
		out[l] = append(out[l], i)
	}
	return out
}

// DistanceMatrix computes the full symmetric pairwise distance matrix — the
// O(n²·d) cost that dominates spectral and hierarchical clustering — over up
// to p workers (p ≤ 0 = all cores).
func DistanceMatrix(points [][]float64, dist DistanceFunc, p int) [][]float64 {
	return symmetricDistanceMatrix(points, dist, p)
}

// symmetricDistanceMatrix is the fan-out scheme shared by the dense and
// packed-binary matrix builds. The upper triangle is split by row; the
// worker for row i also mirrors into d[j][i] (j > i), so every matrix
// element has exactly one writer and the result is parallelism-independent.
func symmetricDistanceMatrix[T any](points []T, dist func(a, b T) float64, p int) [][]float64 {
	n := len(points)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	parallel.For(n, p, func(i int) {
		for j := i + 1; j < n; j++ {
			v := dist(points[i], points[j])
			d[i][j] = v
			d[j][i] = v
		}
	})
	return d
}
