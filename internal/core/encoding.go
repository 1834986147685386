package core

import (
	"math"
	"math/rand"
	"slices"

	"logr/internal/bitvec"
	"logr/internal/stats"
)

// Naive is a naive encoding (Section 3.2): the family of single-feature
// patterns over a sub-log L, stored as integer feature counts. Feature f's
// count c_f is the number of the |L| queries containing it, and every
// statistic is derived from the counts: the marginal p(X_f = 1 | L) is
// c_f / |L|, which is exactly the value Log.FeatureMarginals computes. It
// is the building block of LogR's pattern mixture encodings. Its
// maximum-entropy distribution ρ_E is the product of independent Bernoulli
// features of Eq. (1), so LogProb, Sample, EstimateMarginal and
// ModelEntropy read it straight off the counts.
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

// ModelEntropy returns H(ρ_E) = Σ_i H_Bernoulli(p_i) in nats. Features off
// the support have H_Bernoulli(0) = 0.
func (e Naive) ModelEntropy() float64 {
	h := 0.0
	for j := range e.Feat {
		h += stats.BernoulliEntropy(e.marginal(j))
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

// LogProb returns ln ρ_E(Q = q) = Σ ln p_f over the features of q plus
// Σ ln(1 − p_f) over the support features q lacks. The sum runs over the
// support in ascending feature order. A feature of q off the support has
// p = 0, so LogProb returns −Inf, as it does when q lacks a feature every
// summarized query has (p = 1).
func (e Naive) LogProb(q bitvec.Vector) float64 {
	lp, hits := 0.0, 0
	for j, f := range e.Feat {
		p := e.marginal(j)
		if q.Get(int(f)) {
			lp += math.Log(p)
			hits++
		} else {
			lp += math.Log(1 - p)
		}
	}
	if hits != q.Count() {
		return math.Inf(-1)
	}
	return lp
}

// Sample draws a query from ρ_E over a universe of size n, which must
// cover the support: one rng.Float64() per feature in index order, the
// feature set when the draw falls below its marginal. Features off the
// support consume their draw and stay unset.
func (e Naive) Sample(rng *rand.Rand, n int) bitvec.Vector {
	v := bitvec.New(n)
	j := 0
	for i := range n {
		x := rng.Float64()
		if j < len(e.Feat) && int(e.Feat[j]) == i {
			if x < e.marginal(j) {
				v.Set(i)
			}
			j++
		}
	}
	return v
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
		h += stats.BernoulliEntropy(float64(c) / n)
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
