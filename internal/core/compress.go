package core

import (
	"fmt"

	"logr/internal/cluster"
)

// Method selects the partitioning algorithm LogR uses to construct naive
// mixture encodings (Section 6.1 evaluates all three).
type Method int

// Partitioning methods.
const (
	// KMeansMethod is Lloyd's algorithm with Euclidean distance — the
	// paper's recommendation for time-sensitive applications.
	KMeansMethod Method = iota
	// SpectralMethod is normalized spectral clustering under a chosen
	// distance; with Hamming distance it gives the paper's best
	// Error/runtime trade-off.
	SpectralMethod
	// HierarchicalMethod is average-linkage agglomerative clustering; its
	// cuts nest, enabling dynamic Error/Verbosity control.
	HierarchicalMethod
)

func (m Method) String() string {
	switch m {
	case KMeansMethod:
		return "kmeans"
	case SpectralMethod:
		return "spectral"
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
	// Metric selects the distance for Spectral/Hierarchical methods.
	Metric cluster.Metric
	// MinkowskiP is the Minkowski exponent (default 4, as in the paper).
	MinkowskiP float64
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
	// WarmCentroids seeds the k-means path from these centroids instead of
	// k-means++ (cluster.KMeansOptions.InitCentroids): Lloyd's algorithm runs
	// to convergence from them, consuming no randomness. The segmented store
	// warm-starts each sealed segment's summary from the previous segment's
	// component centroids this way. Ignored by the auto sweep and the
	// spectral/hierarchical methods.
	WarmCentroids [][]float64
	// ForceDense routes clustering through the legacy dense float64 path:
	// every distinct vector is expanded to a []float64 row before k-means /
	// spectral / hierarchical run dense arithmetic over it. The default
	// (false) uses the popcount-native binary kernels, which produce the
	// same assignment and Reproduction Error for a fixed Seed without ever
	// materializing dense points. The dense path remains as the oracle the
	// equivalence tests compare against and for research callers clustering
	// non-binary data through this package.
	ForceDense bool
}

// Compressed is the result of LogR compression: the naive mixture encoding
// plus the supporting partition (kept so fidelity can be audited; callers
// that only need the summary can drop Parts).
type Compressed struct {
	Mixture    Mixture
	Assignment cluster.Assignment
	Parts      []*Log
	// Err is the Generalized Reproduction Error of Mixture against Parts.
	Err float64
}

// Compress builds a naive mixture encoding of l per opts (Section 6.1: the
// search for a naive mixture encoding reduces to a search for a log
// partitioning, here delegated to the chosen clustering method).
func Compress(l *Log, opts CompressOptions) (*Compressed, error) {
	if l.Total() == 0 {
		return &Compressed{Mixture: Mixture{Universe: l.Universe()}}, nil
	}
	if opts.MinkowskiP <= 0 {
		opts.MinkowskiP = 4
	}
	k := opts.K
	if k <= 0 {
		k = opts.MaxK
		if k <= 0 {
			k = 32
		}
	}
	c, err := compressK(l, opts, k)
	if err != nil || opts.K > 0 {
		return c, err
	}
	// The auto sweep: the MaxK clusters just built are the leaves of one
	// merge tree, and its cuts give every smaller K without re-clustering.
	tree, errs := mergeTree(c, opts.Parallelism)
	if k := smallestCut(errs, opts.TargetError); k < len(errs) {
		return fromAssignment(l, composeCut(c, tree.Cut(k)), opts.Parallelism)
	}
	return c, nil
}

// mergeTree agglomerates the non-empty parts of c, always merging the pair
// with the lowest compactionScore. errs[i] is the Reproduction Error after
// i merges, so the cut into K parts has Err errs[len(errs)−K]: each step
// adds the merged part's exact share of T·Err minus its two inputs' shares,
// which holds whether or not the parts share distinct vectors.
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

// warmFor gates CompressOptions.WarmCentroids: the warm start applies only
// to a fixed-K k-means run whose requested K matches the centroid count, so
// the auto sweep and mismatched-K calls fall back to cold seeding instead of
// silently inheriting a different K.
func warmFor(opts CompressOptions, k int) [][]float64 {
	if opts.K == k && len(opts.WarmCentroids) == k {
		return opts.WarmCentroids
	}
	return nil
}

func fromAssignment(l *Log, asg cluster.Assignment, par int) (*Compressed, error) {
	mix, parts := BuildNaiveMixtureP(l, asg, par)
	e, err := mix.ErrorP(parts, par)
	if err != nil {
		return nil, err
	}
	return &Compressed{Mixture: mix, Assignment: asg, Parts: parts, Err: e}, nil
}

func compressK(l *Log, opts CompressOptions, k int) (*Compressed, error) {
	if opts.ForceDense {
		points, weights := l.DenseP(opts.Parallelism)
		return compressDense(l, points, weights, opts, k)
	}
	return compressBinary(l, l.Binary(), opts, k)
}

// compressBinary clusters the log's packed vectors with the popcount
// kernels — the default path. No dense point matrix is ever built; only the
// K centroid rows of the k-means stage are float-dense.
func compressBinary(l *Log, pts cluster.BinaryPoints, opts CompressOptions, k int) (*Compressed, error) {
	var asg cluster.Assignment
	switch opts.Method {
	case KMeansMethod:
		asg = cluster.KMeansBinary(pts, cluster.KMeansOptions{K: k, Seed: opts.Seed, Restarts: 3, Parallelism: opts.Parallelism, InitCentroids: warmFor(opts, k)})
	case SpectralMethod:
		var err error
		asg, err = cluster.SpectralBinary(pts, cluster.BinaryMetricFunc(opts.Metric, opts.MinkowskiP), cluster.SpectralOptions{
			K:           k,
			Seed:        opts.Seed,
			Parallelism: opts.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("core: spectral clustering: %w", err)
		}
	case HierarchicalMethod:
		d := cluster.HierarchicalBinaryP(pts, cluster.BinaryMetricFunc(opts.Metric, opts.MinkowskiP), opts.Parallelism)
		asg = d.Cut(k)
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	return fromAssignment(l, asg, opts.Parallelism)
}

// compressDense is compressK over a pre-built dense matrix — the legacy
// ForceDense path, kept as the equivalence oracle.
func compressDense(l *Log, points [][]float64, weights []float64, opts CompressOptions, k int) (*Compressed, error) {
	var asg cluster.Assignment
	switch opts.Method {
	case KMeansMethod:
		asg = cluster.KMeans(points, weights, cluster.KMeansOptions{K: k, Seed: opts.Seed, Restarts: 3, Parallelism: opts.Parallelism, InitCentroids: warmFor(opts, k)})
	case SpectralMethod:
		var err error
		asg, err = cluster.Spectral(points, weights, cluster.SpectralOptions{
			K:           k,
			Dist:        cluster.MetricFunc(opts.Metric, opts.MinkowskiP),
			Seed:        opts.Seed,
			Parallelism: opts.Parallelism,
		})
		if err != nil {
			return nil, fmt.Errorf("core: spectral clustering: %w", err)
		}
	case HierarchicalMethod:
		d := cluster.HierarchicalP(points, weights, cluster.MetricFunc(opts.Metric, opts.MinkowskiP), opts.Parallelism)
		asg = d.Cut(k)
	default:
		return nil, fmt.Errorf("core: unknown method %v", opts.Method)
	}
	return fromAssignment(l, asg, opts.Parallelism)
}
