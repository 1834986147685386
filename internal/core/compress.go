package core

import (
	"fmt"

	"logr/internal/cluster"
)

// Method selects the partitioning algorithm LogR uses to construct naive
// mixture encodings. Section 6.1 of the paper compares k-means, spectral and
// hierarchical partitioning; Compress offers k-means and hierarchical, and
// spectral clustering runs only in the figure drivers (package mining).
type Method int

// Partitioning methods.
const (
	// KMeansMethod is Lloyd's algorithm with Euclidean distance — the
	// paper's recommendation for time-sensitive applications.
	KMeansMethod Method = iota
	// HierarchicalMethod is average-linkage agglomerative clustering under
	// Hamming distance; its cuts nest, enabling dynamic Error/Verbosity
	// control.
	HierarchicalMethod
)

func (m Method) String() string {
	switch m {
	case KMeansMethod:
		return "kmeans"
	case HierarchicalMethod:
		return "hierarchical"
	}
	return fmt.Sprintf("Method(%d)", int(m))
}

// CompressOptions configure LogR compression.
type CompressOptions struct {
	// K is the number of clusters. K = 0 enables the auto sweep: Method
	// clusters at MaxK, the clusters merge greedily by the exact Error each
	// merge adds, and the smallest cut of that merge tree with Error ≤
	// TargetError is returned — the MaxK clusters when no cut qualifies.
	K int
	// Method selects the clustering algorithm (default KMeansMethod).
	Method Method
	// Seed makes clustering reproducible.
	Seed int64
	// TargetError is the auto-sweep Error threshold (nats).
	TargetError float64
	// MaxK is the cluster count the auto sweep starts from (default 32).
	MaxK int
	// Parallelism bounds the worker count for every stage — clustering, the
	// auto sweep's merge scoring, mixture construction and Error scoring.
	// ≤ 0 means all cores; 1 forces serial execution. Output is
	// bit-identical at any parallelism for a fixed Seed.
	Parallelism int
}

// Compressed is the result of LogR compression: the naive mixture encoding
// plus the supporting partition (kept so fidelity can be audited; callers
// that only need the summary can drop Parts).
type Compressed struct {
	Mixture Mixture
	// Assignment labels every distinct vector of the compressed log, in the
	// log's order, with the index of the part in Parts holding it — after
	// Compress and after an incremental Recompress alike.
	Assignment cluster.Assignment
	Parts      []*Log
	// Err is the Generalized Reproduction Error of Mixture against Parts.
	Err float64
}

// Compress builds a naive mixture encoding of l per opts (Section 6.1: the
// search for a naive mixture encoding reduces to a search for a log
// partitioning, here delegated to the chosen clustering method). Clustering
// runs on the log's packed vectors with the popcount kernels; no dense
// point matrix is ever built, only the K centroid rows of k-means.
func Compress(l *Log, opts CompressOptions) (*Compressed, error) {
	if l.Total() == 0 {
		return &Compressed{Mixture: Mixture{Universe: l.Universe()}}, nil
	}
	k := leafCount(opts)
	pts := l.Binary()
	var asg cluster.Assignment
	switch opts.Method {
	case KMeansMethod:
		asg = cluster.KMeansBinary(pts, kmeansOptions(opts, k))
	case HierarchicalMethod:
		asg = cluster.HierarchicalBinaryP(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), opts.Parallelism).Cut(k)
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	return sweep(l, asg, opts)
}

// leafCount is the cluster count Method partitions into: K, or for the
// auto sweep MaxK (default 32).
func leafCount(opts CompressOptions) int {
	switch {
	case opts.K > 0:
		return opts.K
	case opts.MaxK > 0:
		return opts.MaxK
	}
	return 32
}

// kmeansOptions are the k-means settings of a k-cluster Compress.
func kmeansOptions(opts CompressOptions, k int) cluster.KMeansOptions {
	return cluster.KMeansOptions{K: k, Seed: opts.Seed, Restarts: 3, Parallelism: opts.Parallelism}
}

// sweep finishes Compress from the clustering asg of l's distinct vectors:
// a fixed K returns its mixture, and the auto sweep treats its clusters as
// the leaves of one merge tree, whose cuts give every smaller K without
// re-clustering.
func sweep(l *Log, asg cluster.Assignment, opts CompressOptions) (*Compressed, error) {
	c, err := fromAssignment(l, asg, opts.Parallelism)
	if err != nil || opts.K > 0 {
		return c, err
	}
	tree, errs := mergeTree(c, opts.Parallelism)
	if k := smallestCut(errs, opts.TargetError); k < len(errs) {
		return fromAssignment(l, composeCut(c, tree.Cut(k)), opts.Parallelism)
	}
	return c, nil
}

// mergeTree agglomerates the non-empty parts of c, always merging the pair
// with the lowest compactionScore. errs[i] is the Reproduction Error after
// i merges, so the cut into K parts has Err errs[len(errs)−K]: each step
// adds the merged part's exact share of T·Err minus its two inputs' shares.
func mergeTree(c *Compressed, par int) (*cluster.Dendrogram, []float64) {
	t := float64(c.Mixture.Total)
	errs := []float64{c.Err}
	tree := agglomerateParts(liveConsParts(c.Parts), par, compactionScore, func(a, b *consPart) *consPart {
		m := mergeConsParts(a, b)
		errs = append(errs, errs[len(errs)-1]+(m.excess()-a.excess()-b.excess())/t)
		return m
	})
	return tree, errs
}

// smallestCut returns the fewest parts whose cut of mergeTree has Err ≤
// target, or len(errs) — the leaves themselves — when no smaller cut does.
func smallestCut(errs []float64, target float64) int {
	for k := 1; k < len(errs); k++ {
		if errs[len(errs)-k] <= target {
			return k
		}
	}
	return len(errs)
}

// composeCut lifts a cut of mergeTree's leaves to the distinct vectors of
// the log c was built from: each vector takes the cut label of its leaf.
func composeCut(c *Compressed, cut cluster.Assignment) cluster.Assignment {
	leaf := make([]int, c.Assignment.K)
	n := 0
	for i, p := range c.Parts {
		if p.Total() > 0 {
			leaf[i] = n
			n++
		}
	}
	labels := make([]int, len(c.Assignment.Labels))
	for v, lbl := range c.Assignment.Labels {
		labels[v] = cut.Labels[leaf[lbl]]
	}
	return cluster.Assignment{Labels: labels, K: cut.K}
}

func fromAssignment(l *Log, asg cluster.Assignment, par int) (*Compressed, error) {
	mix, parts := BuildNaiveMixtureP(l, asg, par)
	e, err := mix.ErrorP(parts, par)
	if err != nil {
		return nil, err
	}
	return &Compressed{Mixture: mix, Assignment: asg, Parts: parts, Err: e}, nil
}
