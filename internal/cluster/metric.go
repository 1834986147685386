// Package cluster implements the partitioning methods Compress uses to
// construct naive mixture encodings (Section 6.1 of the paper): weighted
// k-means with k-means++ seeding and average-linkage hierarchical
// clustering (the monotone alternative the paper suggests for dynamic
// Error/Verbosity control). Spectral clustering, the third method of
// Section 6.1, runs only in the figure drivers and lives in package mining;
// its affinity graph uses the distances here — Manhattan, Minkowski and
// Hamming, the three the paper evaluates.
//
// Points are word-packed binary vectors (BinaryPoints), clustered by
// popcount-native kernels — KMeansBinary, HierarchicalBinaryP,
// DistanceMatrixBinary — that never materialize dense rows (see binary.go
// for the kernel design and its equivalence guarantees). The one dense
// [][]float64 entry point is KMeans, which spectral clustering runs on its
// real-valued embedding; the dense float oracles the binary kernels are
// held to live in the test files. Each point carries a weight — the
// multiplicity of a distinct query in the log — so clustering distinct
// vectors is exactly equivalent to clustering the full log.
package cluster

import "fmt"

// Metric enumerates the distance measures the paper evaluates for spectral
// clustering and the Hamming distance hierarchical clustering uses.
type Metric int

// Supported metrics (Section 6.1).
const (
	Manhattan Metric = iota
	Minkowski        // parameterized by p (the paper uses p = 4)
	Hamming
)

func (m Metric) String() string {
	switch m {
	case Manhattan:
		return "manhattan"
	case Minkowski:
		return "minkowski"
	case Hamming:
		return "hamming"
	}
	return fmt.Sprintf("Metric(%d)", int(m))
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
