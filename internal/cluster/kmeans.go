package cluster

import (
	"math"
	"math/rand"
	"sync/atomic"

	"logr/internal/parallel"
)

// KMeansOptions configure Lloyd's algorithm: k-means++ seeding, then up to
// 100 rounds of assignment and update, stopping early once no label
// changes. NearestBinary is one assignment step alone, against
// caller-supplied centroids.
type KMeansOptions struct {
	K        int
	Restarts int   // independent runs, best inertia wins; default 1
	Seed     int64 // RNG seed for reproducible experiments
	// Parallelism bounds the worker count; ≤ 0 means all cores, 1 forces a
	// serial run. Results are bit-identical at any parallelism for a fixed
	// Seed: restarts draw pre-assigned seeds from the master RNG and the
	// per-point reductions merge fixed-boundary chunks in order.
	Parallelism int
}

// maxIter bounds the Lloyd rounds of one k-means run.
const maxIter = 100

// KMeans clusters weighted dense points with Lloyd's algorithm and
// k-means++ seeding (Euclidean geometry, matching the paper's "KMeans
// Euclidean" configuration). weights may be nil for unweighted clustering.
// Binary query vectors take KMeansBinary; KMeans serves real-valued points,
// spectral clustering's eigenvector embedding among them.
//
// Restarts run concurrently, each on its own RNG seeded from the master
// stream; ties between restarts break toward the lowest restart index, so
// the winner does not depend on completion order. Within a run, the O(n·K·d)
// assignment step — the hot loop the paper's experiments are bottlenecked
// on — fans out over the worker pool.
//
// If K ≥ the number of distinct points, each distinct point becomes its own
// cluster. Empty clusters are re-seeded from the point farthest from its
// centroid.
func KMeans(points [][]float64, weights []float64, opts KMeansOptions) Assignment {
	n := len(points)
	if n == 0 || opts.K <= 0 {
		return Assignment{Labels: make([]int, n), K: max(opts.K, 1)}
	}
	k := opts.K
	if k > n {
		k = n
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 1
	}
	w := weights
	if w == nil {
		w = make([]float64, n)
		for i := range w {
			w[i] = 1
		}
	}
	return kmeansRestarts(k, opts, func(seed int64, inner int) ([]int, float64) {
		return kmeansRun(points, w, k, rand.New(rand.NewSource(seed)), inner)
	})
}

// restartBudget splits the worker budget between concurrent restarts and the
// per-point loops inside each run, so the total worker count stays bounded
// by the requested parallelism rather than multiplying across nesting
// levels.
func restartBudget(restarts, parallelism int) (concurrent, inner int) {
	par := parallel.Degree(parallelism)
	concurrent = par
	if concurrent > restarts {
		concurrent = restarts
	}
	inner = par / concurrent
	if inner < 1 {
		inner = 1
	}
	return concurrent, inner
}

// kmeansRestarts is the restart harness shared by the dense and binary
// k-means paths: one seed per restart pre-drawn from the master RNG (so a
// restart's stream is fixed regardless of which worker runs it or when),
// concurrent runs under the restartBudget split, best-inertia selection
// with ties breaking toward the lowest restart index, and label compaction.
// The two paths' equal-output guarantee leans on this RNG draw order and
// tie-breaking — keeping a single copy keeps them in provable lockstep.
func kmeansRestarts(k int, opts KMeansOptions, run func(seed int64, inner int) ([]int, float64)) Assignment {
	rng := rand.New(rand.NewSource(opts.Seed))
	seeds := make([]int64, opts.Restarts)
	for r := range seeds {
		seeds[r] = rng.Int63()
	}
	concurrent, inner := restartBudget(opts.Restarts, opts.Parallelism)
	type runResult struct {
		labels  []int
		inertia float64
	}
	results := make([]runResult, opts.Restarts)
	tasks := make([]func(), opts.Restarts)
	for r := range tasks {
		r := r
		tasks[r] = func() {
			labels, inertia := run(seeds[r], inner)
			results[r] = runResult{labels, inertia}
		}
	}
	parallel.Do(concurrent, tasks...)

	best := Assignment{}
	bestInertia := math.Inf(1)
	for _, res := range results {
		if res.inertia < bestInertia {
			bestInertia = res.inertia
			best = Assignment{Labels: res.labels, K: k}
		}
	}
	relabelCompact(&best)
	return best
}

func kmeansRun(points [][]float64, w []float64, k int, rng *rand.Rand, par int) ([]int, float64) {
	return lloyd(points, w, seedPlusPlus(points, w, k, rng, par), par)
}

// lloyd is Lloyd's algorithm from the given centroids. A cluster that loses
// all its points is re-seeded from the point farthest from its centroid.
func lloyd(points [][]float64, w []float64, cents [][]float64, par int) ([]int, float64) {
	n, dim, k := len(points), len(points[0]), len(cents)
	labels := make([]int, n)
	for iter := 0; iter < maxIter; iter++ {
		// assignment step: each point independently finds its nearest
		// centroid, so the loop fans out; `changed` is an OR over points and
		// insensitive to update order.
		var changed atomic.Bool
		parallel.For(n, par, func(i int) {
			p := points[i]
			bi, bd := 0, math.Inf(1)
			for c := range cents {
				d := sqDist(p, cents[c])
				if d < bd {
					bi, bd = c, d
				}
			}
			if labels[i] != bi {
				labels[i] = bi
				changed.Store(true)
			}
		})
		// update step: O(n·d), an order of magnitude cheaper than
		// assignment; kept serial so centroid sums have a fixed float order.
		sums := make([][]float64, k)
		mass := make([]float64, k)
		for c := range sums {
			sums[c] = make([]float64, dim)
		}
		for i, p := range points {
			c := labels[i]
			mass[c] += w[i]
			for j, v := range p {
				sums[c][j] += w[i] * v
			}
		}
		for c := 0; c < k; c++ {
			if mass[c] == 0 {
				// re-seed from the point with the largest current distance
				far, fd := 0, -1.0
				for i, p := range points {
					d := sqDist(p, cents[labels[i]])
					if d > fd {
						far, fd = i, d
					}
				}
				copy(cents[c], points[far])
				changed.Store(true)
				continue
			}
			for j := 0; j < dim; j++ {
				cents[c][j] = sums[c][j] / mass[c]
			}
		}
		if !changed.Load() {
			break
		}
	}
	// inertia: chunk partials merged in chunk order keep the float sum
	// identical at any parallelism.
	nc := parallel.Chunks(n)
	partial := make([]float64, nc)
	parallel.ForChunks(n, par, func(c, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += w[i] * sqDist(points[i], cents[labels[i]])
		}
		partial[c] = s
	})
	inertia := 0.0
	for _, s := range partial {
		inertia += s
	}
	return labels, inertia
}

// seedPlusPlus performs weighted k-means++ initialization. The O(n·d)
// distance-to-nearest-center refresh after each pick fans out; the RNG draws
// stay serial, so the chosen centers are parallelism-independent.
func seedPlusPlus(points [][]float64, w []float64, k int, rng *rand.Rand, par int) [][]float64 {
	n, dim := len(points), len(points[0])
	cents := make([][]float64, 0, k)
	first := weightedPick(w, rng)
	c0 := make([]float64, dim)
	copy(c0, points[first])
	cents = append(cents, c0)
	d2 := make([]float64, n)
	parallel.For(n, par, func(i int) {
		d2[i] = sqDist(points[i], cents[0])
	})
	for len(cents) < k {
		probs := make([]float64, n)
		total := 0.0
		for i := range probs {
			probs[i] = w[i] * d2[i]
			total += probs[i]
		}
		var pick int
		if total <= 0 {
			pick = rng.Intn(n)
		} else {
			pick = weightedPick(probs, rng)
		}
		c := make([]float64, dim)
		copy(c, points[pick])
		cents = append(cents, c)
		parallel.For(n, par, func(i int) {
			if d := sqDist(points[i], c); d < d2[i] {
				d2[i] = d
			}
		})
	}
	return cents
}

func weightedPick(w []float64, rng *rand.Rand) int {
	total := 0.0
	for _, v := range w {
		total += v
	}
	if total <= 0 {
		return rng.Intn(len(w))
	}
	x := rng.Float64() * total
	for i, v := range w {
		x -= v
		if x <= 0 {
			return i
		}
	}
	return len(w) - 1
}

func sqDist(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return s
}

// relabelCompact renumbers labels so that every cluster id in [0, K) is
// non-empty, shrinking K if needed.
func relabelCompact(a *Assignment) {
	remap := make(map[int]int)
	for _, l := range a.Labels {
		if _, ok := remap[l]; !ok {
			remap[l] = len(remap)
		}
	}
	for i, l := range a.Labels {
		a.Labels[i] = remap[l]
	}
	a.K = len(remap)
}
