package mining

import (
	"math"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/maxent"
)

// PatternEncoding is a general pattern-based encoding (Section 2.3.1): a
// partial mapping from patterns to their marginals in the log, optionally
// on top of a naive base that fixes every feature's marginal — the
// refinement of a naive encoding that Section 6.4 proposes.
type PatternEncoding struct {
	Universe int
	Patterns []bitvec.Vector
	// Marginals[j] = p(Q ⊇ Patterns[j] | L).
	Marginals []float64
	// Count is |L|.
	Count int
	// Base is the naive encoding the patterns refine. A base of no
	// queries (the zero value) means no base: features outside every
	// pattern stay unconstrained.
	Base core.Naive
}

// NewPatternEncoding builds an encoding of l from the given patterns,
// reading every pattern's true marginal off the log in one batched
// containment pass on all cores. Use NewPatternEncodingP to bound the
// workers.
func NewPatternEncoding(l *core.Log, patterns []bitvec.Vector) PatternEncoding {
	return NewPatternEncodingP(l, patterns, 0)
}

// NewPatternEncodingP is NewPatternEncoding with an explicit worker bound
// (p ≤ 0 = all cores).
func NewPatternEncodingP(l *core.Log, patterns []bitvec.Vector, par int) PatternEncoding {
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

// WithPatterns refines the naive encoding base of l with the given
// patterns, reading their marginals off the log. Empty and single-feature
// patterns are skipped: the base already fixes every feature's marginal.
func WithPatterns(l *core.Log, base core.Naive, patterns []bitvec.Vector) PatternEncoding {
	var multi []bitvec.Vector
	for _, b := range patterns {
		if b.Count() > 1 {
			multi = append(multi, b)
		}
	}
	e := NewPatternEncoding(l, multi)
	e.Base = base
	return e
}

// Verbosity returns |E|: the base's single-feature patterns plus the
// mapped patterns.
func (e PatternEncoding) Verbosity() int { return e.Base.Verbosity() + len(e.Patterns) }

// Constraints renders the encoding as maxent constraints.
func (e PatternEncoding) Constraints() []maxent.Constraint {
	cs := make([]maxent.Constraint, len(e.Patterns))
	for j, b := range e.Patterns {
		cs[j] = maxent.Constraint{Pattern: b, Target: e.Marginals[j]}
	}
	return cs
}

// Dist fits the maximum-entropy distribution consistent with the encoding:
// the base's feature marginals, if any, plus the pattern constraints.
func (e PatternEncoding) Dist(opts maxent.Options) (*maxent.Dist, error) {
	var marginals []float64
	if e.Base.Count > 0 {
		marginals = e.Base.Dense(e.Universe)
	}
	return maxent.Fit(e.Universe, marginals, e.Constraints(), opts)
}

// ReproductionError returns e(E) = H(ρ_E) − H(ρ*) where ρ_E is the fitted
// maximum-entropy distribution.
func (e PatternEncoding) ReproductionError(l *core.Log, opts maxent.Options) (float64, error) {
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
