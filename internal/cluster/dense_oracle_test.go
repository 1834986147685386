package cluster

import "math"

// The dense float path is the oracle the popcount kernels are held to: the
// distances of Section 6.1 summed over the dense expansion of the vectors,
// their full pairwise matrix, and average linkage over that matrix.

// denseDistanceFunc computes the distance between two equal-length rows.
type denseDistanceFunc func(a, b []float64) float64

// denseMetricFunc returns the dense formula of metric m; p is the Minkowski
// exponent and is ignored by the other metrics.
func denseMetricFunc(m Metric, p float64) denseDistanceFunc {
	switch m {
	case Manhattan:
		return func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				s += math.Abs(a[i] - b[i])
			}
			return s
		}
	case Minkowski:
		if p <= 0 {
			p = 4
		}
		return func(a, b []float64) float64 {
			s := 0.0
			for i := range a {
				s += math.Pow(math.Abs(a[i]-b[i]), p)
			}
			return math.Pow(s, 1/p)
		}
	case Hamming:
		// Count(x≠y) / (Count(x≠y) + Count(x=y)), the normalized form in
		// Section 6.1
		return func(a, b []float64) float64 {
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
	}
	panic("cluster: unknown metric")
}

// denseDistanceMatrix is the full symmetric pairwise distance matrix of
// dense rows.
func denseDistanceMatrix(points [][]float64, dist denseDistanceFunc) [][]float64 {
	d := make([][]float64, len(points))
	for i := range d {
		d[i] = make([]float64, len(points))
	}
	for i := range points {
		for j := i + 1; j < len(points); j++ {
			d[i][j] = dist(points[i], points[j])
			d[j][i] = d[i][j]
		}
	}
	return d
}

// denseHierarchical is average linkage over the dense distance matrix.
func denseHierarchical(points [][]float64, weights []float64, dist denseDistanceFunc) *Dendrogram {
	return averageLinkage(denseDistanceMatrix(points, dist), weights)
}
