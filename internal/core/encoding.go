package core

import (
	"math"
	"slices"

	"logr/internal/bitvec"
	"logr/internal/maxent"
)

// Naive is a naive encoding (Section 3.2): the family of single-feature
// patterns over a sub-log L, stored as integer feature counts. Feature f's
// count c_f is the number of the |L| queries containing it, and every
// statistic is derived from the counts: the marginal p(X_f = 1 | L) is
// c_f / |L|, which is exactly the value Log.FeatureMarginals computes. It
// is the building block of LogR's pattern mixture encodings.
//
// Features outside the support have count 0 and marginal 0, so an encoding
// is valid over any universe that covers its support: growing the universe
// (features registered after the sub-log was summarized) changes nothing.
type Naive struct {
	// Count is |L|, the number of queries the encoding summarizes.
	Count int
	// Feat lists the features with a non-zero count, strictly ascending;
	// Cnt[j] ∈ 1..Count is the count of Feat[j]. Counts are int, not
	// uint32: a summary may describe up to 2^50 queries.
	Feat []uint32
	Cnt  []int
}

// NaiveEncode computes the naive encoding of a log.
func NaiveEncode(l *Log) Naive {
	sums := l.featureSums()
	e := Naive{Count: l.Total()}
	support := 0
	for _, s := range sums {
		if s > 0 {
			support++
		}
	}
	e.Feat = make([]uint32, 0, support)
	e.Cnt = make([]int, 0, support)
	for f, s := range sums {
		if s > 0 {
			e.Feat = append(e.Feat, uint32(f))
			e.Cnt = append(e.Cnt, int(s))
		}
	}
	return e
}

// marginal returns the marginal of the j-th support feature.
func (e Naive) marginal(j int) float64 { return float64(e.Cnt[j]) / float64(e.Count) }

// Marginal returns p(X_f = 1 | L) = c_f / |L|; 0 off the support.
func (e Naive) Marginal(f int) float64 {
	if j, ok := slices.BinarySearch(e.Feat, uint32(f)); ok {
		return e.marginal(j)
	}
	return 0
}

// Dense returns the marginals of every feature of a universe of size n,
// which must cover the support.
func (e Naive) Dense(n int) []float64 {
	row := make([]float64, n)
	for j, f := range e.Feat {
		row[f] = e.marginal(j)
	}
	return row
}

// Verbosity returns |E| for the naive encoding: the number of features with
// non-zero marginal (one single-feature pattern each).
func (e Naive) Verbosity() int { return len(e.Feat) }

// Dist returns the maximum-entropy distribution ρ_E induced by the naive
// encoding over a universe of size n — the closed-form independent product
// of Eq. (1).
func (e Naive) Dist(n int) *maxent.Dist { return maxent.Naive(e.Dense(n)) }

// ModelEntropy returns H(ρ_E) = Σ_i H_Bernoulli(p_i) in nats. Features off
// the support have H_Bernoulli(0) = 0.
func (e Naive) ModelEntropy() float64 {
	h := 0.0
	for j := range e.Feat {
		h += maxent.BernoulliEntropy(e.marginal(j))
	}
	return h
}

// EstimateMarginal returns ρ_E(Q ⊇ b) = Π_{f ∈ b} p_f, the closed-form
// marginal estimate under feature independence (Section 6.2). The product
// runs in ascending feature order, and a feature off the support makes it
// 0.
//
//logr:noalloc
func (e Naive) EstimateMarginal(b bitvec.Vector) float64 {
	p := 1.0
	j := 0
	for f := b.NextSet(0); f >= 0; f = b.NextSet(f + 1) {
		// branchless binary search for f in Feat[j:] (the probe's features
		// ascend too): narrow to the last entry below f, then step past it
		if j == len(e.Feat) {
			return 0
		}
		for n := len(e.Feat) - j; n > 1; n -= n >> 1 {
			if int(e.Feat[j+n>>1]) < f {
				j += n >> 1
			}
		}
		if int(e.Feat[j]) < f {
			j++
		}
		if j == len(e.Feat) || int(e.Feat[j]) != f {
			return 0
		}
		p *= e.marginal(j)
	}
	return p
}

// EstimateCount returns est[Γ_b(L) | E] = |L| · Π_{f ∈ b} E[f].
//
//logr:noalloc
func (e Naive) EstimateCount(b bitvec.Vector) float64 {
	return float64(e.Count) * e.EstimateMarginal(b)
}

// ReproductionError returns e(E) = H(ρ_E) − H(ρ*) for this encoding of log
// l (Section 4.1). The paper's measures are in nats.
func (e Naive) ReproductionError(l *Log) float64 {
	return e.ModelEntropy() - l.EmpiricalEntropy()
}

// pooledEntropy returns H(ρ_E) of the naive encoding pooling a and b —
// their summed feature counts over their summed query count — without
// materializing it. The walk touches only the union of the two supports.
func pooledEntropy(a, b Naive) float64 {
	n := float64(a.Count + b.Count)
	h := 0.0
	i, j := 0, 0
	for i < len(a.Feat) || j < len(b.Feat) {
		var c int
		switch {
		case j >= len(b.Feat) || (i < len(a.Feat) && a.Feat[i] < b.Feat[j]):
			c = a.Cnt[i]
			i++
		case i >= len(a.Feat) || b.Feat[j] < a.Feat[i]:
			c = b.Cnt[j]
			j++
		default: // shared feature
			c = a.Cnt[i] + b.Cnt[j]
			i++
			j++
		}
		h += maxent.BernoulliEntropy(float64(c) / n)
	}
	return h
}

// poolNaive returns the naive encoding of the union of the sub-logs a and b
// encode: feature counts and query counts add, whether or not the sub-logs
// share distinct queries.
func poolNaive(a, b Naive) Naive {
	p := Naive{Count: a.Count + b.Count}
	p.Feat = make([]uint32, 0, len(a.Feat)+len(b.Feat))
	p.Cnt = make([]int, 0, len(a.Feat)+len(b.Feat))
	i, j := 0, 0
	for i < len(a.Feat) || j < len(b.Feat) {
		switch {
		case j >= len(b.Feat) || (i < len(a.Feat) && a.Feat[i] < b.Feat[j]):
			p.Feat, p.Cnt = append(p.Feat, a.Feat[i]), append(p.Cnt, a.Cnt[i])
			i++
		case i >= len(a.Feat) || b.Feat[j] < a.Feat[i]:
			p.Feat, p.Cnt = append(p.Feat, b.Feat[j]), append(p.Cnt, b.Cnt[j])
			j++
		default:
			p.Feat, p.Cnt = append(p.Feat, a.Feat[i]), append(p.Cnt, a.Cnt[i]+b.Cnt[j])
			i++
			j++
		}
	}
	return p
}

// PatternEncoding is a general pattern-based encoding (Section 2.3.1): a
// partial mapping from patterns to their marginals in the log.
type PatternEncoding struct {
	Universe int
	Patterns []bitvec.Vector
	// Marginals[j] = p(Q ⊇ Patterns[j] | L).
	Marginals []float64
	// Count is |L|.
	Count int
}

// NewPatternEncoding builds an encoding of l from the given patterns,
// reading every pattern's true marginal off the log in one batched
// containment pass on all cores. Use NewPatternEncodingP to bound the
// workers.
func NewPatternEncoding(l *Log, patterns []bitvec.Vector) PatternEncoding {
	return NewPatternEncodingP(l, patterns, 0)
}

// NewPatternEncodingP is NewPatternEncoding with an explicit worker bound
// (p ≤ 0 = all cores).
func NewPatternEncodingP(l *Log, patterns []bitvec.Vector, par int) PatternEncoding {
	e := PatternEncoding{Universe: l.Universe(), Count: l.Total()}
	counts := l.CountBatch(patterns, par)
	for i, b := range patterns {
		e.Patterns = append(e.Patterns, b.Clone())
		m := 0.0
		if l.Total() > 0 {
			m = float64(counts[i]) / float64(l.Total())
		}
		e.Marginals = append(e.Marginals, m)
	}
	return e
}

// Verbosity returns |E|, the number of mapped patterns.
func (e PatternEncoding) Verbosity() int { return len(e.Patterns) }

// Constraints renders the encoding as maxent constraints.
func (e PatternEncoding) Constraints() []maxent.Constraint {
	cs := make([]maxent.Constraint, len(e.Patterns))
	for j, b := range e.Patterns {
		cs[j] = maxent.Constraint{Pattern: b, Target: e.Marginals[j]}
	}
	return cs
}

// Dist fits the maximum-entropy distribution consistent with the encoding.
func (e PatternEncoding) Dist(opts maxent.Options) (*maxent.Dist, error) {
	return maxent.Fit(e.Universe, nil, e.Constraints(), opts)
}

// ReproductionError returns e(E) = H(ρ_E) − H(ρ*) where ρ_E is the fitted
// maximum-entropy distribution.
func (e PatternEncoding) ReproductionError(l *Log, opts maxent.Options) (float64, error) {
	d, err := e.Dist(opts)
	if err != nil {
		return math.NaN(), err
	}
	return d.Entropy() - l.EmpiricalEntropy(), nil
}

// Contains reports whether every pattern of other (with matching marginal)
// appears in e — the subset relation that induces the containment partial
// order E' ≤Ω E of Section 4.2 (more patterns → smaller induced space).
func (e PatternEncoding) Contains(other PatternEncoding) bool {
	if e.Universe != other.Universe {
		return false
	}
	for j, b := range other.Patterns {
		found := false
		for i, a := range e.Patterns {
			if a.Equal(b) && e.Marginals[i] == other.Marginals[j] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// Difference returns the encoding holding the patterns of e that are not in
// other (set difference E \ E'), used by the Section 7.1 "additive
// separability" experiment.
func (e PatternEncoding) Difference(other PatternEncoding) PatternEncoding {
	out := PatternEncoding{Universe: e.Universe, Count: e.Count}
	for i, a := range e.Patterns {
		dup := false
		for _, b := range other.Patterns {
			if a.Equal(b) {
				dup = true
				break
			}
		}
		if !dup {
			out.Patterns = append(out.Patterns, a)
			out.Marginals = append(out.Marginals, e.Marginals[i])
		}
	}
	return out
}
