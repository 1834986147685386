// Package maxent fits maximum-entropy distributions over binary feature
// universes subject to marginal constraints — the inference engine behind
// the Reproduction Error of general pattern encodings (Section 4), the
// refinement experiments (Sections 6.4 and 7.2), and the MTV baseline's
// model. Naive encodings never need it: core.Naive evaluates their
// independent product in closed form, so only the figure-side packages
// (mining, experiments) import maxent.
//
// A constraint fixes the marginal probability of a pattern b:
// E[1(Q ⊇ b)] = target. Single-feature patterns express naive encodings;
// the closed form of Eq. (1) (independent Bernoulli product) falls out
// automatically. General pattern sets are fitted by iterative scaling.
//
// Exact inference over {0,1}^n is exponential, so the solver exploits the
// same factorization MTV uses: patterns are grouped into connected
// components by shared features; features untouched by any multi-feature
// pattern stay independent Bernoulli variables, and each component's joint
// is enumerated over its (small) feature block. Components larger than
// Options.MaxBlockBits are rejected with an error rather than silently
// approximated.
package maxent

import (
	"fmt"
	"math"

	"logr/internal/bitvec"
	"logr/internal/stats"
)

// Constraint fixes the marginal of Pattern at Target ∈ [0,1].
type Constraint struct {
	Pattern bitvec.Vector
	Target  float64
}

// Options tune the iterative-scaling solver.
type Options struct {
	// MaxIter bounds full constraint sweeps. Default 500.
	MaxIter int
	// Tol is the max absolute marginal error at convergence. Default 1e-9.
	Tol float64
	// MaxBlockBits caps the size of an enumerable feature block. Default 22.
	MaxBlockBits int
}

func (o Options) withDefaults() Options {
	if o.MaxIter <= 0 {
		o.MaxIter = 500
	}
	if o.Tol <= 0 {
		o.Tol = 1e-9
	}
	if o.MaxBlockBits <= 0 {
		o.MaxBlockBits = 22
	}
	return o
}

// Dist is a fitted maximum-entropy distribution over {0,1}^n.
//
// It factorizes as a product of independent Bernoulli features and
// independent joint blocks.
type Dist struct {
	n int
	// bern[i] is the success probability of feature i when it is outside
	// every block (0.5 when unconstrained).
	bern []float64
	// inBlock[i] indicates feature i belongs to some block.
	inBlock []bool
	blocks  []*block
	// blockOf[i] is the index of the block containing feature i, or -1.
	blockOf []int
}

// block is a small set of features whose joint distribution is represented
// explicitly as a probability table over 2^k states.
type block struct {
	feats []int // global feature indices, ascending; local bit i ↔ feats[i]
	probs []float64
}

// Fit solves for the maximum-entropy distribution over n binary features
// subject to the given constraints.
//
// featureMarginals, if non-nil, must have length n; entry i constrains
// E[X_i] unless it is NaN. Multi-feature constraints come in via patterns.
// Both kinds of constraint are enforced simultaneously.
func Fit(n int, featureMarginals []float64, patterns []Constraint, opts Options) (*Dist, error) {
	opts = opts.withDefaults()
	if featureMarginals != nil && len(featureMarginals) != n {
		return nil, fmt.Errorf("maxent: featureMarginals length %d != n %d", len(featureMarginals), n)
	}
	for _, c := range patterns {
		if c.Pattern.Len() != n {
			return nil, fmt.Errorf("maxent: pattern universe %d != n %d", c.Pattern.Len(), n)
		}
		if c.Target < 0 || c.Target > 1 || math.IsNaN(c.Target) {
			return nil, fmt.Errorf("maxent: constraint target %v out of [0,1]", c.Target)
		}
		if c.Pattern.IsZero() {
			return nil, fmt.Errorf("maxent: empty pattern constraint (its marginal is identically 1)")
		}
	}

	d := &Dist{n: n, bern: make([]float64, n), inBlock: make([]bool, n), blockOf: make([]int, n)}
	for i := range d.blockOf {
		d.blockOf[i] = -1
	}
	for i := 0; i < n; i++ {
		d.bern[i] = 0.5
		if featureMarginals != nil && !math.IsNaN(featureMarginals[i]) {
			d.bern[i] = clampProb(featureMarginals[i])
		}
	}

	// Single-feature patterns fold into Bernoulli marginals unless the
	// feature ends up inside a block.
	multi := patterns[:0:0]
	singles := map[int]float64{}
	for _, c := range patterns {
		if c.Pattern.Count() == 1 {
			singles[c.Pattern.Indices()[0]] = clampProb(c.Target)
			continue
		}
		multi = append(multi, c)
	}
	for i, t := range singles {
		d.bern[i] = t
	}
	if len(multi) == 0 {
		return d, nil
	}

	// Union-find over patterns sharing features → connected components.
	comp := newUnionFind(len(multi))
	owner := map[int]int{} // feature → first pattern that used it
	for pi, c := range multi {
		for _, f := range c.Pattern.Indices() {
			if prev, ok := owner[f]; ok {
				comp.union(prev, pi)
			} else {
				owner[f] = pi
			}
		}
	}
	// Block layout is part of the observable output (block order decides
	// d.blockOf and the probs tables PatternMarginal walks), so iterate
	// components in first-appearance order — never in map order, which
	// would shuffle blocks run to run.
	groups := map[int][]int{}
	var roots []int
	for pi := range multi {
		r := comp.find(pi)
		if _, ok := groups[r]; !ok {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], pi)
	}

	for _, r := range roots {
		g := groups[r]
		// feature block = union of supports
		featSet := map[int]bool{}
		for _, pi := range g {
			for _, f := range multi[pi].Pattern.Indices() {
				featSet[f] = true
			}
		}
		feats := make([]int, 0, len(featSet))
		for f := range featSet {
			feats = append(feats, f)
		}
		sortInts(feats)
		if len(feats) > opts.MaxBlockBits {
			return nil, fmt.Errorf("maxent: pattern component spans %d features > MaxBlockBits %d", len(feats), opts.MaxBlockBits)
		}
		lidx := map[int]int{}
		for li, f := range feats {
			lidx[f] = li
		}

		// constraints inside the block: every feature with a marginal, plus
		// the group's patterns as local masks.
		type blockConstraint struct {
			mask   uint32
			target float64
		}
		var bcs []blockConstraint
		for li, f := range feats {
			// feature marginal constraint (always present: default 0.5 from
			// unconstrained prior is NOT a constraint — only add if the
			// caller constrained it or a single-feature pattern did)
			constrained := false
			t := 0.5
			if featureMarginals != nil && !math.IsNaN(featureMarginals[f]) {
				constrained = true
				t = clampProb(featureMarginals[f])
			}
			if st, ok := singles[f]; ok {
				constrained = true
				t = st
			}
			if constrained {
				bcs = append(bcs, blockConstraint{mask: 1 << uint(li), target: t})
			}
		}
		for _, pi := range g {
			var mask uint32
			for _, f := range multi[pi].Pattern.Indices() {
				mask |= 1 << uint(lidx[f])
			}
			bcs = append(bcs, blockConstraint{mask: mask, target: clampProb(multi[pi].Target)})
		}

		// Iterative scaling over the 2^k table with incremental
		// multiplicative updates: a single multiplier change touches only
		// the states matching its mask, so a full sweep is
		// O(constraints · states) instead of O(constraints² · states).
		k := len(feats)
		size := 1 << uint(k)
		w := make([]float64, size)
		for s := range w {
			w[s] = 1
		}
		z := float64(size)
		renormalize := func() {
			z = 0
			maxW := 0.0
			for _, v := range w {
				if v > maxW {
					maxW = v
				}
			}
			if maxW == 0 {
				maxW = 1
			}
			for s := range w {
				w[s] /= maxW
				z += w[s]
			}
		}
		for iter := 0; iter < opts.MaxIter; iter++ {
			worst := 0.0
			for _, c := range bcs {
				sum := 0.0
				for s := 0; s < size; s++ {
					if uint32(s)&c.mask == c.mask {
						sum += w[s]
					}
				}
				m := sum / z
				t := c.target
				if e := math.Abs(m - t); e > worst {
					worst = e
				}
				m = clampProb(m)
				// exact coordinate update for a binary indicator feature
				f := math.Exp(math.Log(t*(1-m)) - math.Log(m*(1-t)))
				for s := 0; s < size; s++ {
					if uint32(s)&c.mask == c.mask {
						w[s] *= f
					}
				}
				z += (f - 1) * sum
			}
			// periodic renormalization for numeric hygiene
			if iter%16 == 15 || z > 1e200 || z < 1e-200 {
				renormalize()
			}
			if worst < opts.Tol {
				break
			}
		}
		renormalize()
		probs := make([]float64, size)
		for s := range w {
			probs[s] = w[s] / z
		}

		b := &block{feats: feats, probs: probs}
		bi := len(d.blocks)
		d.blocks = append(d.blocks, b)
		for _, f := range feats {
			d.inBlock[f] = true
			d.blockOf[f] = bi
		}
	}
	return d, nil
}

// Entropy returns H(ρ) in nats.
func (d *Dist) Entropy() float64 {
	h := 0.0
	for i := 0; i < d.n; i++ {
		if !d.inBlock[i] {
			h += stats.BernoulliEntropy(d.bern[i])
		}
	}
	for _, b := range d.blocks {
		for _, p := range b.probs {
			if p > 0 {
				h -= p * math.Log(p)
			}
		}
	}
	return h
}

// PatternMarginal returns P(Q ⊇ b) under the fitted distribution.
func (d *Dist) PatternMarginal(b bitvec.Vector) float64 {
	if b.Len() != d.n {
		panic("maxent: pattern universe mismatch")
	}
	p := 1.0
	// per-block masks
	blockMask := map[int]uint32{}
	b.ForEach(func(i int) {
		if bi := d.blockOf[i]; bi >= 0 {
			blk := d.blocks[bi]
			li := indexOf(blk.feats, i)
			blockMask[bi] |= 1 << uint(li)
		} else {
			p *= d.bern[i]
		}
	})
	// accumulate the product in block-index order: float multiplication
	// does not associate, so map order would perturb the low bits
	for bi := range d.blocks {
		mask, ok := blockMask[bi]
		if !ok {
			continue
		}
		blk := d.blocks[bi]
		m := 0.0
		for s, pr := range blk.probs {
			if uint32(s)&mask == mask {
				m += pr
			}
		}
		p *= m
	}
	return p
}

const probEps = 1e-9

func clampProb(p float64) float64 {
	if p < probEps {
		return probEps
	}
	if p > 1-probEps {
		return 1 - probEps
	}
	return p
}

func indexOf(xs []int, x int) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := (lo + hi) / 2
		if xs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}

type unionFind struct{ parent []int }

func newUnionFind(n int) *unionFind {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return &unionFind{parent: p}
}

func (u *unionFind) find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

func (u *unionFind) union(a, b int) {
	ra, rb := u.find(a), u.find(b)
	if ra != rb {
		u.parent[ra] = rb
	}
}
