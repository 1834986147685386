package experiments

import (
	"fmt"
	"math/rand"
	"strings"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/maxent"
	"logr/internal/mining"
)

// Figure 4 validates the Reproduction Error metric (Section 7.1). All three
// panels work on the log projected onto the sub-universe of features with
// marginals in [0.01, 0.99] (the paper's selection), and enumerate small
// pattern combinations as candidate encodings.

// Fig4Containment is one E1 ⊂ E2 pair of panel 4a/4b: x = d(E2\E1) (how
// much the added patterns matter on their own), y = d(E1) − d(E2) (how much
// deviation dropped when they were added). The paper's claim: y stays above
// zero — containment order agrees with Deviation order — and y correlates
// with x (additive separability).
type Fig4Containment struct {
	Dataset   string
	DDiffOnly float64 // d(E2 \ E1)
	DGap      float64 // d(E1) − d(E2)
}

// Fig4ErrDev is one encoding of panel 4c/4d: Reproduction Error vs sampled
// Deviation, grouped by pattern count.
type Fig4ErrDev struct {
	Dataset     string
	NumPatterns int
	Error       float64
	Deviation   float64
}

// Fig4CorrRank is one point of panel 4e/4f: corr_rank of a pattern vs the
// Reproduction Error of the naive encoding extended with it.
type Fig4CorrRank struct {
	Dataset     string
	NumFeatures int
	CorrRank    float64
	Error       float64
}

// Fig4Result bundles the three panels.
type Fig4Result struct {
	Containment []Fig4Containment
	ErrDev      []Fig4ErrDev
	CorrRank    []Fig4CorrRank
}

// Figure4 regenerates all panels of Figure 4.
func Figure4(s Scale) (*Fig4Result, error) {
	d := load(s)
	rng := rand.New(rand.NewSource(s.Seed))
	res := &Fig4Result{}
	for _, nl := range d.logsByName() {
		feats := nl.log.SelectFeatures(0.01, 0.99, s.Fig4Features)
		if len(feats) < 4 {
			continue
		}
		proj := nl.log.Project(feats)

		// Candidate pattern pool: highest-corr_rank patterns, mixing 2- and
		// 3-feature sizes. Size variety matters for panel 4a/4b: a
		// pattern's deviation scales with its feature count (each pinned
		// feature halves the equivalence-class cardinality), which is what
		// spreads the paper's x-axis bins.
		naive := core.NaiveEncode(proj)
		cands := core.CandidatePatterns(proj, naive, 0.01, 0)
		var pool []bitvec.Vector
		pairs, triples := 0, 0
		for _, c := range cands {
			switch c.Pattern.Count() {
			case 2:
				if pairs < 4 {
					pool = append(pool, c.Pattern)
					pairs++
				}
			case 3:
				if triples < 4 {
					pool = append(pool, c.Pattern)
					triples++
				}
			}
			if pairs >= 4 && triples >= 4 {
				break
			}
		}
		if len(pool) < 3 {
			continue
		}

		deviationN := func(patterns []bitvec.Vector, samples int) (float64, error) {
			enc := mining.NewPatternEncoding(proj, patterns)
			sampler, err := mining.NewDeviationSampler(proj, enc)
			if err != nil {
				return 0, err
			}
			return sampler.Deviation(samples, rng), nil
		}
		deviation := func(patterns []bitvec.Vector) (float64, error) {
			return deviationN(patterns, s.DeviationSamples)
		}

		// 4a/4b: containment pairs E1 ⊂ E2 over 1→2 pattern sets. The gap
		// d(E1) − d(E2) is small relative to Monte-Carlo noise, so this
		// panel uses 4× the sample budget and caches the single-pattern
		// deviations.
		singles := make([]float64, len(pool))
		for i := range pool {
			d1, err := deviationN([]bitvec.Vector{pool[i]}, 4*s.DeviationSamples)
			if err != nil {
				return nil, err
			}
			singles[i] = d1
		}
		nPairs := 0
		for i := 0; i < len(pool) && nPairs < 24; i++ {
			for j := i + 1; j < len(pool) && nPairs < 24; j++ {
				d2, err := deviationN([]bitvec.Vector{pool[i], pool[j]}, 4*s.DeviationSamples)
				if err != nil {
					return nil, err
				}
				res.Containment = append(res.Containment, Fig4Containment{
					Dataset: nl.name, DDiffOnly: singles[j], DGap: singles[i] - d2,
				})
				nPairs++
			}
		}

		// 4c/4d: Error vs Deviation for 1..3-pattern encodings
		combos := enumerateCombos(len(pool), 3, 30)
		for _, combo := range combos {
			patterns := make([]bitvec.Vector, len(combo))
			for i, ci := range combo {
				patterns[i] = pool[ci]
			}
			enc := mining.NewPatternEncoding(proj, patterns)
			re, err := enc.ReproductionError(proj, maxent.Options{})
			if err != nil {
				return nil, err
			}
			dev, err := deviation(patterns)
			if err != nil {
				return nil, err
			}
			res.ErrDev = append(res.ErrDev, Fig4ErrDev{
				Dataset: nl.name, NumPatterns: len(combo), Error: re, Deviation: dev,
			})
		}

		// 4e/4f: corr_rank vs Error for naive + single 2- or 3-feature
		// pattern
		cands3 := core.CandidatePatterns(proj, naive, 0.01, 40)
		for _, c := range cands3 {
			r := mining.WithPatterns(proj, naive, []bitvec.Vector{c.Pattern})
			re, err := r.ReproductionError(proj, maxent.Options{})
			if err != nil {
				return nil, err
			}
			res.CorrRank = append(res.CorrRank, Fig4CorrRank{
				Dataset:     nl.name,
				NumFeatures: c.Pattern.Count(),
				CorrRank:    c.Score,
				Error:       re,
			})
		}
	}
	return res, nil
}

// enumerateCombos lists up to limit combinations of sizes 1..maxSize.
func enumerateCombos(n, maxSize, limit int) [][]int {
	var out [][]int
	var rec func(start int, cur []int)
	rec = func(start int, cur []int) {
		if len(out) >= limit {
			return
		}
		if len(cur) > 0 {
			c := make([]int, len(cur))
			copy(c, cur)
			out = append(out, c)
		}
		if len(cur) == maxSize {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(cur, i))
		}
	}
	rec(0, nil)
	return out
}

// FormatFigure4 prints the three panels.
func FormatFigure4(r *Fig4Result) string {
	var sb strings.Builder
	sb.WriteString("Figure 4a/4b: containment captures Deviation (expect d-gap ≥ 0, correlated with d(E2\\E1))\n")
	fmt.Fprintf(&sb, "%-12s %14s %14s\n", "dataset", "d(E2\\E1)", "d(E1)-d(E2)")
	for _, p := range r.Containment {
		fmt.Fprintf(&sb, "%-12s %14.4f %14.4f\n", p.Dataset, p.DDiffOnly, p.DGap)
	}
	sb.WriteString("\nFigure 4c/4d: Reproduction Error vs Deviation (expect positive correlation per series)\n")
	fmt.Fprintf(&sb, "%-12s %10s %12s %12s\n", "dataset", "patterns", "error", "deviation")
	for _, p := range r.ErrDev {
		fmt.Fprintf(&sb, "%-12s %10d %12.4f %12.4f\n", p.Dataset, p.NumPatterns, p.Error, p.Deviation)
	}
	sb.WriteString("\nFigure 4e/4f: corr_rank vs Error of extended naive encoding (expect negative slope)\n")
	fmt.Fprintf(&sb, "%-12s %10s %12s %12s\n", "dataset", "features", "corr_rank", "error")
	for _, p := range r.CorrRank {
		fmt.Fprintf(&sb, "%-12s %10d %12.4f %12.4f\n", p.Dataset, p.NumFeatures, p.CorrRank, p.Error)
	}
	return sb.String()
}
