package core

import (
	"math"
	"slices"
	"strings"

	"logr/internal/bitvec"
	"logr/internal/maxent"
)

// Feature-correlation refinement (Section 6.4): starting from a naive
// encoding, identify the patterns whose true marginals deviate most from
// the independence estimate — they are the best candidates to add to the
// encoding — and optionally diversify a whole set of them.

// FeatureCorrelation returns WC(b, S) = log p(Q ⊇ b) − log ρ_S(Q ⊇ b): the
// log-gap between a pattern's true marginal and the naive (independent)
// estimate. Positive values mean the features co-occur more often than
// independence predicts. Returns 0 when either marginal is 0 (the gap is
// undefined; such patterns cannot reduce Error).
func FeatureCorrelation(l *Log, e Naive, b bitvec.Vector) float64 {
	actual := l.Marginal(b)
	est := e.EstimateMarginal(b)
	if actual <= 0 || est <= 0 {
		return 0
	}
	return math.Log(actual) - math.Log(est)
}

// CorrRank returns corr_rank(b) = p(Q ⊇ b) · WC(b, S): feature correlation
// weighted by how often the pattern occurs (Section 6.4).
func CorrRank(l *Log, e Naive, b bitvec.Vector) float64 {
	return l.Marginal(b) * FeatureCorrelation(l, e, b)
}

// ScoredPattern pairs a candidate pattern with its corr_rank score.
type ScoredPattern struct {
	Pattern bitvec.Vector
	Score   float64
}

// CandidatePatterns enumerates frequent 2- and 3-feature co-occurrence
// patterns of the log, scored by corr_rank against the naive encoding and
// sorted descending. minSupport is the minimum marginal for a pattern to be
// considered; maxCandidates caps the result (0 = no cap).
//
// Enumeration walks the distinct queries rather than the 2^n pattern space:
// only feature pairs/triples that actually co-occur can have positive
// support.
func CandidatePatterns(l *Log, e Naive, minSupport float64, maxCandidates int) []ScoredPattern {
	n := l.Universe()
	type key struct{ a, b, c int } // c = -1 for pairs
	counts := map[key]int{}
	for i := 0; i < l.Distinct(); i++ {
		v := l.Vector(i)
		idx := v.Indices()
		w := l.Multiplicity(i)
		for ai := 0; ai < len(idx); ai++ {
			for bi := ai + 1; bi < len(idx); bi++ {
				counts[key{idx[ai], idx[bi], -1}] += w
				for ci := bi + 1; ci < len(idx); ci++ {
					counts[key{idx[ai], idx[bi], idx[ci]}] += w
				}
			}
		}
	}
	total := float64(l.Total())
	var out []ScoredPattern
	for k, c := range counts {
		supp := float64(c) / total
		if supp < minSupport {
			continue
		}
		var b bitvec.Vector
		if k.c < 0 {
			b = bitvec.FromIndices(n, k.a, k.b)
		} else {
			b = bitvec.FromIndices(n, k.a, k.b, k.c)
		}
		est := e.EstimateMarginal(b)
		if est <= 0 {
			continue
		}
		score := supp * (math.Log(supp) - math.Log(est))
		out = append(out, ScoredPattern{Pattern: b, Score: score})
	}
	sortByScoreThenKey(out)
	if maxCandidates > 0 && len(out) > maxCandidates {
		out = out[:maxCandidates]
	}
	return out
}

// sortByScoreThenKey sorts scored patterns by descending score, ties by
// ascending pattern key, computing each pattern's key once.
func sortByScoreThenKey(ps []ScoredPattern) {
	type keyed struct {
		p   ScoredPattern
		key string
	}
	ks := make([]keyed, len(ps))
	for i, p := range ps {
		ks[i] = keyed{p, p.Pattern.Key()}
	}
	slices.SortFunc(ks, func(a, b keyed) int {
		switch {
		case a.p.Score > b.p.Score:
			return -1
		case a.p.Score < b.p.Score:
			return 1
		}
		return strings.Compare(a.key, b.key)
	})
	for i, k := range ks {
		ps[i] = k.p
	}
}

// RefinedEncoding is a naive encoding extended with extra pattern
// constraints — the hypothetical second LogR stage of Section 6.4. It
// trades closed-form statistics for lower Error.
type RefinedEncoding struct {
	Base     Naive
	Extra    []maxent.Constraint
	Universe int
}

// RefineNaive extends the naive encoding of l with up to k patterns chosen
// greedily by corr_rank from the candidate list. If diversify is true, a
// candidate is skipped when it shares a feature with an already-chosen
// pattern (the cheap overlap-avoidance stand-in for full pattern-set
// diversification, whose benefit Section 7.2 measures as minimal).
func RefineNaive(l *Log, e Naive, candidates []ScoredPattern, k int, diversify bool) RefinedEncoding {
	r := RefinedEncoding{Base: e, Universe: l.Universe()}
	used := bitvec.New(l.Universe())
	for _, c := range candidates {
		if len(r.Extra) >= k {
			break
		}
		if diversify && used.Intersects(c.Pattern) {
			continue
		}
		r.Extra = append(r.Extra, maxent.Constraint{Pattern: c.Pattern, Target: l.Marginal(c.Pattern)})
		used.OrInPlace(c.Pattern)
	}
	return r
}

// WithPatterns extends the naive encoding with explicit pattern constraints
// whose targets are read from the log — used to plug Laserlight/MTV
// patterns into a naive (mixture) encoding for the Figure 5a experiment.
func WithPatterns(l *Log, e Naive, patterns []bitvec.Vector) RefinedEncoding {
	r := RefinedEncoding{Base: e, Universe: l.Universe()}
	for _, b := range patterns {
		if b.IsZero() || b.Count() == 1 {
			continue // single-feature patterns are already in the naive base
		}
		r.Extra = append(r.Extra, maxent.Constraint{Pattern: b, Target: l.Marginal(b)})
	}
	return r
}

// Verbosity counts the naive base plus the extra patterns.
func (r RefinedEncoding) Verbosity() int { return r.Base.Verbosity() + len(r.Extra) }

// Dist fits the refined maximum-entropy distribution: feature marginals
// from the naive base plus the extra pattern constraints.
func (r RefinedEncoding) Dist(opts maxent.Options) (*maxent.Dist, error) {
	return maxent.Fit(r.Universe, r.Base.Dense(r.Universe), r.Extra, opts)
}

// ReproductionError returns e(E) for the refined encoding against l.
func (r RefinedEncoding) ReproductionError(l *Log, opts maxent.Options) (float64, error) {
	d, err := r.Dist(opts)
	if err != nil {
		return math.NaN(), err
	}
	return d.Entropy() - l.EmpiricalEntropy(), nil
}
