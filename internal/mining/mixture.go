package mining

import (
	"time"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/stats"
)

// Generalizations of Laserlight and MTV to partitioned data
// (Section 8.1.3): the miner runs independently on every cluster and the
// per-cluster Errors combine by summation (both Error measures are totals
// over rows, so summing is the weighted combination of Section 5.2).
//
// Two flavors:
//
//   - Mixture Fixed: a global pattern budget is split across clusters with
//     the Appendix D.3 weights w_i ∝ (m_i / n_i) · e(E_L_i), where m_i is
//     the cluster's distinct-row count, n_i its occurring-feature count and
//     e(E_L_i) the Reproduction Error of its naive encoding.
//
//   - Mixture Scaled: every cluster mines as many patterns as its naive
//     encoding's verbosity (comparable to a naive mixture encoding). MTV
//     keeps its practical 15-pattern ceiling.

// MixtureResult reports a partitioned mining run.
type MixtureResult struct {
	Error              float64
	Elapsed            time.Duration
	PatternsPerCluster []int
}

// UnlabeledLog strips outcome labels, yielding the core.Log view used for
// naive encodings and MTV.
func (d *Labeled) UnlabeledLog() *core.Log {
	l := core.NewLog(d.universe)
	for i, v := range d.vecs {
		l.Add(v, d.count[i])
	}
	return l
}

// AppendixD3Weights computes the Mixture Fixed budget weights
// w_i ∝ (m_i / n_i) · e(E_L_i), normalized to sum to 1. Clusters with zero
// weight (e.g. perfectly uniform) receive none of the budget.
func AppendixD3Weights(parts []*core.Log) []float64 {
	w := make([]float64, len(parts))
	total := 0.0
	for i, p := range parts {
		if p.Total() == 0 {
			continue
		}
		n := p.UsedFeatures()
		if n == 0 {
			continue
		}
		e := core.NaiveEncode(p)
		re := e.ReproductionError(p)
		if re < 0 {
			re = 0
		}
		w[i] = float64(p.Distinct()) / float64(n) * re
		total += w[i]
	}
	if total > 0 {
		for i := range w {
			w[i] /= total
		}
	}
	return w
}

// distributeBudget turns weights into integer pattern counts summing to
// total (largest-remainder rounding).
func distributeBudget(weights []float64, total int) []int {
	out := make([]int, len(weights))
	if total <= 0 {
		return out
	}
	type rem struct {
		i int
		f float64
	}
	used := 0
	var rems []rem
	for i, w := range weights {
		exact := w * float64(total)
		out[i] = int(exact)
		used += out[i]
		rems = append(rems, rem{i, exact - float64(out[i])})
	}
	// hand out the remainder to the largest fractional parts
	for used < total {
		best := -1
		for r := range rems {
			if best < 0 || rems[r].f > rems[best].f {
				best = r
			}
		}
		if best < 0 {
			break
		}
		out[rems[best].i]++
		rems[best].f = -1
		used++
	}
	return out
}

// LaserlightMixtureFixed runs Laserlight over a partition with a global
// budget of totalPatterns distributed by the Appendix D.3 weights.
func LaserlightMixtureFixed(parts []*Labeled, totalPatterns int, opts LaserlightOptions) MixtureResult {
	logs := make([]*core.Log, len(parts))
	for i, p := range parts {
		logs[i] = p.UnlabeledLog()
	}
	budget := distributeBudget(AppendixD3Weights(logs), totalPatterns)
	return runLaserlightMixture(parts, budget, opts)
}

// LaserlightMixtureScaled runs Laserlight over a partition, mining in each
// cluster as many patterns as the cluster's naive-encoding verbosity.
func LaserlightMixtureScaled(parts []*Labeled, opts LaserlightOptions) MixtureResult {
	budget := make([]int, len(parts))
	for i, p := range parts {
		budget[i] = p.UsedFeatures()
	}
	return runLaserlightMixture(parts, budget, opts)
}

func runLaserlightMixture(parts []*Labeled, budget []int, opts LaserlightOptions) MixtureResult {
	res := MixtureResult{PatternsPerCluster: budget}
	start := time.Now() //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	for i, p := range parts {
		if p.Total() == 0 {
			continue
		}
		o := opts
		o.Patterns = budget[i]
		o.Seed = opts.Seed + int64(i)*7919
		m := Laserlight(p, o)
		res.Error += m.Error()
	}
	res.Elapsed = time.Since(start) //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	return res
}

// LaserlightNaiveMixtureError evaluates a naive mixture encoding under the
// Laserlight Error: each cluster's estimate is its own positive rate.
func LaserlightNaiveMixtureError(parts []*Labeled) float64 {
	e := 0.0
	for _, p := range parts {
		if p.Total() > 0 {
			e += LaserlightNaiveError(p)
		}
	}
	return e
}

// MTVMixtureFixed runs MTV over a partition with a global budget
// distributed by the Appendix D.3 weights.
func MTVMixtureFixed(parts []*core.Log, totalPatterns int, opts MTVOptions) (MixtureResult, error) {
	budget := distributeBudget(AppendixD3Weights(parts), totalPatterns)
	return runMTVMixture(parts, budget, opts)
}

// MTVMixtureScaled runs MTV over a partition, targeting each cluster's
// naive verbosity but respecting MTV's practical ceiling (Section 8.1.4
// notes the comparison is therefore not strictly on equal footing; the
// verbosity penalty in the Error measure mitigates it).
func MTVMixtureScaled(parts []*core.Log, ceiling int, opts MTVOptions) (MixtureResult, error) {
	if ceiling <= 0 {
		ceiling = 15
	}
	budget := make([]int, len(parts))
	for i, p := range parts {
		budget[i] = p.UsedFeatures()
		if budget[i] > ceiling {
			budget[i] = ceiling
		}
	}
	return runMTVMixture(parts, budget, opts)
}

func runMTVMixture(parts []*core.Log, budget []int, opts MTVOptions) (MixtureResult, error) {
	res := MixtureResult{PatternsPerCluster: budget}
	start := time.Now() //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	for i, p := range parts {
		if p.Total() == 0 {
			continue
		}
		o := opts
		o.Patterns = budget[i]
		m, err := MTV(p, o)
		if err != nil {
			return res, err
		}
		res.Error += m.Error()
	}
	res.Elapsed = time.Since(start) //logr:allow(determinism) wall-clock feeds Stats/Elapsed timing fields only, never summary bytes
	return res, nil
}

// MTVNaiveMixtureError evaluates a naive mixture encoding under the MTV
// Error: Σ_i (|D_i|·Σ_f H_i(f) + ½·V_i·log|D_i|).
func MTVNaiveMixtureError(parts []*core.Log) float64 {
	e := 0.0
	for _, p := range parts {
		if p.Total() > 0 {
			e += MTVNaiveError(p)
		}
	}
	return e
}

// TopFeaturesByEntropy returns the max most-variable features of the log
// (by Bernoulli entropy of their marginals) — the dimensionality restriction
// applied to Laserlight's input in Section 7.2.2 (PostgreSQL's 100-argument
// limit) and Appendix D.1.
func TopFeaturesByEntropy(l *core.Log, max int) []int {
	return l.SelectFeatures(0, 1, max)
}

// LabelByFeature converts a log into a labeled dataset by designating one
// feature as the augmented attribute A and removing it from the vectors —
// how Appendix D.1 prepares Laserlight's input (the highest-entropy feature
// becomes A). The returned mapping gives old→new feature indices.
func LabelByFeature(l *core.Log, labelFeature int) (*Labeled, []int) {
	n := l.Universe()
	mapping := make([]int, n)
	kept := 0
	for i := 0; i < n; i++ {
		if i == labelFeature {
			mapping[i] = -1
			continue
		}
		mapping[i] = kept
		kept++
	}
	d := NewLabeled(kept)
	for i := 0; i < l.Distinct(); i++ {
		v := l.Vector(i)
		nv := bitvec.New(kept)
		v.ForEach(func(f int) {
			if mapping[f] >= 0 {
				nv.Set(mapping[f])
			}
		})
		pos := 0
		if v.Get(labelFeature) {
			pos = l.Multiplicity(i)
		}
		d.Add(nv, l.Multiplicity(i), pos)
	}
	return d, mapping
}

// HighestEntropyFeature returns the feature whose marginal is closest to
// 0.5 (max Bernoulli entropy) — Appendix D.1's choice of augmented
// attribute.
func HighestEntropyFeature(l *core.Log) int {
	marg := l.FeatureMarginals()
	best, bestH := 0, -1.0
	for i, p := range marg {
		if h := stats.BernoulliEntropy(p); h > bestH {
			best, bestH = i, h
		}
	}
	return best
}
