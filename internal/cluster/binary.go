package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"logr/internal/bitvec"
	"logr/internal/parallel"
)

// Binary-native clustering: the paper's inputs are binary feature vectors
// (Section 2.1, q ∈ {0,1}^n), so the hot paths below run directly on the
// word-packed bitvec representation instead of dense float64 rows. The
// kernels are built so results match the dense float path exactly:
//
//   - k-means++ seeding measures point-to-point distances, and for binary
//     points ‖a−b‖² is the Hamming distance — an integer popcount, identical
//     to the dense float sum of 0/1 terms.
//   - Centroid updates sum multiplicity-weighted bit columns
//     (bitvec.AccumulateInto) in the same point order as the dense update;
//     adding 0.0 for unset bits is a float no-op, so the sums are identical.
//   - Lloyd's assignment scores a point q against a float centroid c with the
//     sparse identity ‖q−c‖² = ‖c‖² + Σ_{i∈q}(1−2c_i): ‖c‖² is precomputed
//     once per centroid per iteration and the Σ touches only q's set bits.
//     While c stays binary (every first iteration, and any cluster holding
//     one distinct point) the identity is exact integer arithmetic; for
//     fractional centroids it agrees with the dense sum up to last-ulp
//     rounding, so whenever the best two centroids land within tieEps of
//     each other the argmin is re-resolved with bitvec.SqDist — the
//     bit-exact dense accumulation — and outside that band the sparse and
//     dense orderings provably coincide. Empty-cluster re-seeding and the
//     final inertia (which decides the restart winner) always use the
//     bit-exact arithmetic, so labels, re-seeds and restart selection all
//     match the dense path exactly.
//   - Hamerly-style center-movement bounds skip the scorer entirely for
//     points whose assignment provably cannot have changed; movements are
//     padded by a relative epsilon so float rounding can only make the
//     bounds more conservative, and skip tests must clear a boundsEps slack
//     so rounding-ambiguous points always fall through to the full scan and
//     its exact near-tie fallback.
//
// Distance matrices for the spectral and hierarchical methods come out
// bit-identical to the dense path (see BinaryMetricFunc), so those methods
// are exact end to end.

// BinaryPoints is packed clustering input: distinct binary vectors plus
// their multiplicity weights (nil Weights = unweighted). It replaces the
// O(n·universe) dense [][]float64 materialization with the log's existing
// word-packed vectors.
type BinaryPoints struct {
	Vecs    []bitvec.Vector
	Weights []float64
}

// Len returns the number of points.
func (p BinaryPoints) Len() int { return len(p.Vecs) }

func (p BinaryPoints) weightsOrOnes() []float64 {
	if p.Weights != nil {
		return p.Weights
	}
	w := make([]float64, len(p.Vecs))
	for i := range w {
		w[i] = 1
	}
	return w
}

// movementPad inflates center-movement bounds so that float rounding in the
// movement norms can only make Hamerly skips more conservative. The padding
// is ~1e7 ulps, dwarfing any rounding in the sqrt/sum pipeline, yet ~1e-7 of
// the distance scale the bounds discriminate on.
const movementPad = 1 + 1e-9

// tieEps is the relative gap below which two sparse-identity scores count as
// a near-tie: the sparse and dense accumulations of ‖q−c‖² agree only to
// last-ulp rounding (≲1e-11 relative for any realistic universe), so a
// comparison this close is re-resolved with bitvec.SqDist — the bit-exact
// dense arithmetic — to keep the binary argmin identical to the dense
// path's even when two centroids are equidistant to within rounding.
const tieEps = 1e-7

// boundsEps is the relative slack Hamerly skip tests must clear: a point is
// skipped only when its bound gap comfortably exceeds the sparse-vs-dense
// rounding noise, so every rounding-ambiguous point falls through to the
// full scan (where the near-tie fallback takes over).
const boundsEps = 1e-9

// KMeansBinary is KMeans over packed binary points: identical options,
// restart strategy, RNG consumption and tie-breaking, with every inner loop
// running on popcount and set-bit arithmetic instead of dense float rows.
// For a fixed Seed it produces the same assignment as KMeans on the dense
// expansion of the same points (enforced by TestKMeansBinaryMatchesDense).
func KMeansBinary(pts BinaryPoints, opts KMeansOptions) Assignment {
	if len(opts.InitCentroids) > 0 {
		return kmeansWarmBinary(pts, opts)
	}
	n := pts.Len()
	if n == 0 || opts.K <= 0 {
		return Assignment{Labels: make([]int, n), K: max(opts.K, 1)}
	}
	k := opts.K
	if k > n {
		k = n
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 1
	}
	w := pts.weightsOrOnes()

	// Restarts share identical shapes, so `concurrent` scratch sets cycle
	// through a free list instead of every restart allocating its own
	// centroid/bound/accumulator buffers. Each run fully re-initializes the
	// scratch it draws, so results are independent of which set a restart
	// received. Restart scheduling, seeding order and winner selection come
	// from the same kmeansRestarts harness as the dense path.
	concurrent, _ := restartBudget(opts.Restarts, opts.Parallelism)
	scratch := make(chan *kmeansScratch, concurrent)
	for i := 0; i < concurrent; i++ {
		scratch <- newKMeansScratch(n, pts.Vecs[0].Len(), k)
	}
	return kmeansRestarts(k, opts, func(seed int64, inner int) ([]int, float64) {
		s := <-scratch
		defer func() { scratch <- s }()
		seedPlusPlusBinary(pts.Vecs, w, k, rand.New(rand.NewSource(seed)), inner, s)
		return lloydBinary(pts.Vecs, w, opts.MaxIter, inner, true, true, s)
	})
}

// kmeansWarmBinary mirrors kmeansWarm: Lloyd's algorithm from caller-supplied
// float centroids over packed points, preserving the label ↔ centroid
// correspondence (no empty-cluster re-seeding, no compaction, no RNG).
func kmeansWarmBinary(pts BinaryPoints, opts KMeansOptions) Assignment {
	n := pts.Len()
	k := len(opts.InitCentroids)
	if n == 0 {
		return Assignment{Labels: []int{}, K: k}
	}
	if dim := pts.Vecs[0].Len(); len(opts.InitCentroids[0]) != dim {
		panic(fmt.Sprintf("cluster: warm-start centroid dimension %d != point universe %d", len(opts.InitCentroids[0]), dim))
	}
	if opts.MaxIter <= 0 {
		opts.MaxIter = 100
	}
	w := pts.weightsOrOnes()
	s := newKMeansScratch(n, pts.Vecs[0].Len(), k)
	for i, c := range opts.InitCentroids {
		copy(s.cents[i], c)
	}
	// the warm caller discards inertia, so skip the exact final pass
	labels, _ := lloydBinary(pts.Vecs, w, opts.MaxIter, parallel.Degree(opts.Parallelism), false, false, s)
	return Assignment{Labels: labels, K: k}
}

// kmeansScratch bundles the per-run buffers of the binary k-means: the K
// float centroid rows (the only dense state the binary path keeps), the
// sparse-score tables, Hamerly bounds and update accumulators. Restarts of
// one KMeansBinary call recycle these through a free list; every field is
// fully (re-)initialized by the seeding and Lloyd stages before being read.
type kmeansScratch struct {
	cents  [][]float64
	sums   [][]float64 // update-step accumulators, zeroed per iteration
	mass   []float64
	prev   []float64 // previous centroid during the movement computation
	moved  []float64 // per-center movement since the last assignment
	ub, lb []float64 // Hamerly bounds per point
	d2     []float64 // seeding: squared distance to the nearest center
	probs  []float64 // seeding: pick weights
	scorer *binaryScorer
}

func newKMeansScratch(n, dim, k int) *kmeansScratch {
	s := &kmeansScratch{
		cents:  make([][]float64, k),
		sums:   make([][]float64, k),
		mass:   make([]float64, k),
		prev:   make([]float64, dim),
		moved:  make([]float64, k),
		ub:     make([]float64, n),
		lb:     make([]float64, n),
		d2:     make([]float64, n),
		probs:  make([]float64, n),
		scorer: newBinaryScorer(k, dim),
	}
	for c := 0; c < k; c++ {
		s.cents[c] = make([]float64, dim)
		s.sums[c] = make([]float64, dim)
	}
	return s
}

// seedPlusPlusBinary is weighted k-means++ over packed points, writing the
// chosen centers into s.cents. Every center is a copy of an input point, so
// all point-to-center distances are Hamming popcounts — exact integers,
// bit-identical to the dense seeding — and the RNG draw sequence matches
// seedPlusPlus exactly.
func seedPlusPlusBinary(vecs []bitvec.Vector, w []float64, k int, rng *rand.Rand, par int, s *kmeansScratch) {
	n := len(vecs)
	picks := make([]int, 0, k)
	first := weightedPick(w, rng)
	picks = append(picks, first)
	d2 := s.d2
	parallel.For(n, par, func(i int) {
		d2[i] = float64(vecs[i].XorCount(vecs[first]))
	})
	probs := s.probs
	for len(picks) < k {
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
		picks = append(picks, pick)
		parallel.For(n, par, func(i int) {
			if d := float64(vecs[i].XorCount(vecs[pick])); d < d2[i] {
				d2[i] = d
			}
		})
	}
	for c, p := range picks {
		row := s.cents[c]
		for j := range row {
			row[j] = 0
		}
		vecs[p].AccumulateInto(row, 1)
	}
}

// binaryScorer evaluates ‖q−c‖² for packed q against float centroids via the
// sparse identity, rebuilt once per Lloyd iteration: norm2[c] = ‖c‖² and
// delta[c][j] = 1−2c_j, so score(q,c) = norm2[c] + Σ_{j∈q} delta[c][j].
type binaryScorer struct {
	norm2 []float64
	delta [][]float64
}

func newBinaryScorer(k, dim int) *binaryScorer {
	s := &binaryScorer{norm2: make([]float64, k), delta: make([][]float64, k)}
	for c := range s.delta {
		s.delta[c] = make([]float64, dim)
	}
	return s
}

// refresh recomputes the per-centroid tables from cents.
func (s *binaryScorer) refresh(cents [][]float64) {
	for c, cent := range cents {
		n2 := 0.0
		d := s.delta[c]
		for j, v := range cent {
			n2 += v * v
			d[j] = 1 - 2*v
		}
		s.norm2[c] = n2
	}
}

// score returns ‖q−cents[c]‖². While the centroid is binary the result is an
// exact integer (the Hamming distance); otherwise it matches the dense sum
// up to last-ulp rounding.
func (s *binaryScorer) score(q bitvec.Vector, c int) float64 {
	return s.norm2[c] + q.Dot(s.delta[c])
}

// lloydBinary is the binary-input Lloyd loop: the same control flow as lloyd
// (assignment fan-out, serial fixed-order update, reseed-empty semantics,
// chunk-ordered inertia), with the assignment step running on the sparse
// scorer and Hamerly-style bounds. Bounds state (one upper bound to the
// assigned center, one lower bound to the runner-up, per point) lets an
// iteration skip every point whose centroids provably did not move enough to
// change its argmin — the common case once the partition stabilizes.
func lloydBinary(vecs []bitvec.Vector, w []float64, maxIter, par int, reseedEmpty, needInertia bool, s *kmeansScratch) ([]int, float64) {
	n, dim, k := len(vecs), vecs[0].Len(), len(s.cents)
	labels := make([]int, n) // fresh per run: it outlives the scratch
	cents, scorer := s.cents, s.scorer
	ub, lb := s.ub, s.lb
	moved, prev := s.moved, s.prev
	sums, mass := s.sums, s.mass
	bounded := false // bounds valid (false on first iteration)
	for iter := 0; iter < maxIter; iter++ {
		scorer.refresh(cents)
		var changed atomic.Bool
		// m1/m2: largest and second-largest center movement, for the lower
		// bound of points assigned to the most-moved center.
		m1i, m1, m2 := -1, 0.0, 0.0
		if bounded {
			for c, m := range moved {
				if m > m1 {
					m1i, m1, m2 = c, m, m1
				} else if m > m2 {
					m2 = m
				}
			}
		}
		parallel.For(n, par, func(i int) {
			q := vecs[i]
			if bounded {
				a := labels[i]
				u := ub[i] + moved[a]
				other := m1
				if a == m1i {
					other = m2
				}
				l := lb[i] - other
				// skips must clear a slack proportional to the bound, so a
				// rounding-ambiguous point always reaches the full scan
				if u+boundsEps*(u+1) < l {
					// no centroid moved enough to overtake: argmin unchanged
					ub[i], lb[i] = u, l
					return
				}
				// tighten the upper bound before paying for a full scan
				d := math.Sqrt(math.Max(scorer.score(q, a), 0))
				if d+boundsEps*(d+1) < l {
					ub[i], lb[i] = d, l
					return
				}
			}
			bi, bd, sd := 0, math.Inf(1), math.Inf(1)
			for c := 0; c < k; c++ {
				d := scorer.score(q, c)
				if d < bd {
					bi, sd, bd = c, bd, d
				} else if d < sd {
					sd = d
				}
			}
			if sd-bd <= tieEps*(bd+1) {
				// near-tie between the best two centroids: the sparse scores
				// cannot be trusted to order them the way the dense sums
				// would, so redo the argmin with the bit-exact arithmetic
				// (same loop, same strict-< tie-break as the dense path)
				bi, bd, sd = 0, math.Inf(1), math.Inf(1)
				for c := 0; c < k; c++ {
					d := q.SqDist(cents[c])
					if d < bd {
						bi, sd, bd = c, bd, d
					} else if d < sd {
						sd = d
					}
				}
			}
			if labels[i] != bi {
				labels[i] = bi
				changed.Store(true)
			}
			ub[i] = math.Sqrt(math.Max(bd, 0))
			lb[i] = math.Sqrt(math.Max(sd, 0))
		})
		bounded = true
		// update step: identical to the dense path — serial, fixed point
		// order, so centroid sums are bit-identical to lloyd's.
		for c := range sums {
			for j := range sums[c] {
				sums[c][j] = 0
			}
			mass[c] = 0
		}
		for i, q := range vecs {
			c := labels[i]
			mass[c] += w[i]
			q.AccumulateInto(sums[c], w[i])
		}
		for c := 0; c < k; c++ {
			if mass[c] == 0 {
				if !reseedEmpty {
					moved[c] = 0
					continue
				}
				// Re-seed from the point farthest from its centroid, with
				// the bit-exact arithmetic against the *current* cents —
				// like the dense path, lower-indexed centroids have already
				// been updated in place this loop, and the far-point choice
				// must see exactly that mixed state to match it.
				far, fd := 0, -1.0
				for i, q := range vecs {
					if d := q.SqDist(cents[labels[i]]); d > fd {
						far, fd = i, d
					}
				}
				for j := range cents[c] {
					cents[c][j] = 0
				}
				vecs[far].AccumulateInto(cents[c], 1)
				moved[c] = math.Inf(1)
				changed.Store(true)
				continue
			}
			copy(prev, cents[c])
			for j := 0; j < dim; j++ {
				cents[c][j] = sums[c][j] / mass[c]
			}
			m := 0.0
			for j := 0; j < dim; j++ {
				d := cents[c][j] - prev[j]
				m += d * d
			}
			moved[c] = math.Sqrt(m) * movementPad
		}
		if !changed.Load() {
			break
		}
	}
	if !needInertia {
		// warm starts run once and ignore inertia; skip the exact pass
		return labels, 0
	}
	// Final inertia uses the bit-exact arithmetic in the same chunk order as
	// the dense path: with identical labels and centroids (guaranteed above)
	// the inertia is bit-identical too, so restart selection — including its
	// lowest-index tie-break — always picks the same winner as dense KMeans.
	// One exact O(n·dim) pass per run; the sparse scorer stays on the
	// per-iteration hot path.
	nc := parallel.Chunks(n)
	partial := make([]float64, nc)
	parallel.ForChunks(n, par, func(c, lo, hi int) {
		s := 0.0
		for i := lo; i < hi; i++ {
			s += w[i] * vecs[i].SqDist(cents[labels[i]])
		}
		partial[c] = s
	})
	inertia := 0.0
	for _, s := range partial {
		inertia += s
	}
	return labels, inertia
}

// BinaryDistanceFunc computes the distance between two packed binary vectors
// over the same universe.
type BinaryDistanceFunc func(a, b bitvec.Vector) float64

// BinaryMetricFunc returns the popcount implementation of metric m on binary
// vectors; p is the Minkowski exponent, ignored by the other metrics. On
// {0,1} vectors every supported metric reduces to a function of the single
// popcount |a ⊕ b|:
//
//	manhattan = canberra = |a⊕b|      euclidean = √|a⊕b|
//	minkowski = |a⊕b|^(1/p)           hamming   = |a⊕b| / n
//	chebyshev = 1 iff |a⊕b| > 0
//
// Each reduction performs the same final float operations as the dense
// MetricFunc on the dense expansion of the vectors (whose accumulations are
// exact integer-valued sums), so the results are bit-identical — spectral
// and hierarchical clustering over these distances match the dense path
// exactly.
func BinaryMetricFunc(m Metric, p float64) BinaryDistanceFunc {
	switch m {
	case Euclidean:
		return func(a, b bitvec.Vector) float64 { return math.Sqrt(float64(a.XorCount(b))) }
	case Manhattan, Canberra:
		return func(a, b bitvec.Vector) float64 { return float64(a.XorCount(b)) }
	case Minkowski:
		if p <= 0 {
			p = 4
		}
		inv := 1 / p
		return func(a, b bitvec.Vector) float64 { return math.Pow(float64(a.XorCount(b)), inv) }
	case Hamming:
		return func(a, b bitvec.Vector) float64 {
			if a.Len() == 0 {
				return 0
			}
			return float64(a.XorCount(b)) / float64(a.Len())
		}
	case Chebyshev:
		return func(a, b bitvec.Vector) float64 {
			if a.XorCount(b) > 0 {
				return 1
			}
			return 0
		}
	}
	panic("cluster: unknown metric")
}

// DistanceMatrixBinary computes the full symmetric pairwise distance matrix
// over packed binary vectors — the popcount replacement for the dense
// O(n²·universe) build dominating spectral and hierarchical clustering. The
// fan-out scheme is shared with the dense DistanceMatrix, so the result is
// parallelism-independent the same way.
func DistanceMatrixBinary(vecs []bitvec.Vector, dist BinaryDistanceFunc, p int) [][]float64 {
	return symmetricDistanceMatrix(vecs, dist, p)
}

// HierarchicalBinaryP builds the average-linkage dendrogram of packed binary
// points with an explicit worker bound (p ≤ 0 = all cores), using a popcount
// distance matrix; the merge loop is shared with the dense path, so the
// dendrogram is identical to HierarchicalP on the dense expansion. nil dist
// defaults to Euclidean.
func HierarchicalBinaryP(pts BinaryPoints, dist BinaryDistanceFunc, p int) *Dendrogram {
	n := pts.Len()
	if n <= 1 {
		return &Dendrogram{n: n}
	}
	if dist == nil {
		dist = BinaryMetricFunc(Euclidean, 0)
	}
	return averageLinkage(DistanceMatrixBinary(pts.Vecs, dist, p), pts.Weights)
}
