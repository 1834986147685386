package experiments

import (
	"fmt"
	"strings"
	"time"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/maxent"
	"logr/internal/mining"
)

// Fig5Point is one K cell of Figure 5 on the US-bank-like log:
//
//	5a — Error of the naive mixture vs the naive mixture refined with
//	     Laserlight/MTV patterns (expect a small reduction);
//	5b — Error of pattern-only encodings built from Laserlight/MTV patterns
//	     (expect orders of magnitude above the naive mixture);
//	5c — construction runtime (expect naive mixture ≪ miners).
type Fig5Point struct {
	K int

	NaiveError      float64
	LaserlightPlus  float64 // naive mixture + Laserlight patterns (5a)
	MTVPlus         float64 // naive mixture + MTV patterns (5a)
	LaserlightAlone float64 // pattern-only encoding Error (5b)
	MTVAlone        float64 // pattern-only encoding Error (5b)

	NaiveSecs      float64
	LaserlightSecs float64
	MTVSecs        float64
}

// Figure5 reproduces the Section 7.2 refinement experiment. Following the
// paper, the log is restricted to its top-100 features by variability
// (Laserlight's PostgreSQL implementation caps at 100 arguments) and each
// miner is limited to 15 patterns per cluster (MTV's practical ceiling).
// The naive mixture is core.Compress's, and NaiveSecs times the whole call:
// clustering, mixture construction and Error scoring.
func Figure5(s Scale) ([]Fig5Point, error) {
	d := load(s)
	bank := d.bank.Log
	feats := mining.TopFeaturesByEntropy(bank, 100)
	proj := bank.Project(feats)

	var out []Fig5Point
	for _, k := range s.Ks() {
		t0 := time.Now()
		c, err := core.Compress(proj, core.CompressOptions{K: k, Seed: s.Seed})
		if err != nil {
			return nil, err
		}
		mix, parts := c.Mixture, c.Parts
		p := Fig5Point{K: k, NaiveError: c.Err, NaiveSecs: time.Since(t0).Seconds()}

		// per-cluster mining + refinement
		t0 = time.Now()
		llPlus, llAlone := 0.0, 0.0
		for i, part := range livePartitions(parts) {
			labelFeat := mining.HighestEntropyFeature(part)
			labeled, mapping := mining.LabelByFeature(part, labelFeat)
			model := mining.Laserlight(labeled, mining.LaserlightOptions{
				Patterns: 15, Seed: s.Seed + int64(i),
			})
			patterns := unmapPatterns(model.Patterns, mapping, part.Universe())
			w := mix.Weight(i)
			llPlus += w * refineWithBudget(part, mix.Components[i], patterns)
			llAlone += w * patternOnlyError(part, patterns)
		}
		p.LaserlightSecs = time.Since(t0).Seconds()
		p.LaserlightPlus = llPlus
		p.LaserlightAlone = llAlone

		t0 = time.Now()
		mtvPlus, mtvAlone := 0.0, 0.0
		for i, part := range livePartitions(parts) {
			model, err := mining.MTV(part, mining.MTVOptions{Patterns: 15})
			if err != nil {
				return nil, err
			}
			w := mix.Weight(i)
			mtvPlus += w * refineWithBudget(part, mix.Components[i], model.Patterns)
			mtvAlone += w * patternOnlyError(part, model.Patterns)
		}
		p.MTVSecs = time.Since(t0).Seconds()
		p.MTVPlus = mtvPlus
		p.MTVAlone = mtvAlone

		out = append(out, p)
	}
	return out, nil
}

func livePartitions(parts []*core.Log) []*core.Log {
	var live []*core.Log
	for _, p := range parts {
		if p.Total() > 0 {
			live = append(live, p)
		}
	}
	return live
}

// unmapPatterns lifts patterns mined in a label-stripped universe back into
// the original feature universe.
func unmapPatterns(patterns []bitvec.Vector, mapping []int, universe int) []bitvec.Vector {
	inverse := make([]int, 0, len(mapping))
	for old, nw := range mapping {
		if nw >= 0 {
			for len(inverse) <= nw {
				inverse = append(inverse, 0)
			}
			inverse[nw] = old
		}
	}
	out := make([]bitvec.Vector, 0, len(patterns))
	for _, p := range patterns {
		v := bitvec.New(universe)
		p.ForEach(func(i int) { v.Set(inverse[i]) })
		out = append(out, v)
	}
	return out
}

// refineWithBudget extends the naive encoding with mined patterns one at a
// time, skipping any pattern whose joint inference block would exceed the
// solver budget (the same practical wall the paper hits at 15 patterns),
// and returns the refined Reproduction Error.
func refineWithBudget(l *core.Log, e core.Naive, patterns []bitvec.Vector) float64 {
	opts := maxent.Options{MaxBlockBits: 18}
	kept := make([]bitvec.Vector, 0, len(patterns))
	errVal := e.ReproductionError(l)
	for _, b := range patterns {
		if b.Count() < 2 || b.Count() > 10 {
			continue
		}
		trial := mining.WithPatterns(l, e, append(kept, b))
		re, err := trial.ReproductionError(l, opts)
		if err != nil {
			continue
		}
		kept = append(kept, b)
		errVal = re
	}
	return errVal
}

// patternOnlyError fits a maximum-entropy model constrained only by the
// mined patterns (no per-feature marginals) — the "Laserlight/MTV alone"
// series of Figure 5b.
func patternOnlyError(l *core.Log, patterns []bitvec.Vector) float64 {
	opts := maxent.Options{MaxBlockBits: 18}
	var kept []bitvec.Vector
	for _, b := range patterns {
		if b.IsZero() || b.Count() > 10 {
			continue
		}
		trial := mining.NewPatternEncoding(l, append(kept, b))
		if _, err := trial.Dist(opts); err != nil {
			continue
		}
		kept = append(kept, b)
	}
	enc := mining.NewPatternEncoding(l, kept)
	re, err := enc.ReproductionError(l, opts)
	if err != nil {
		// no usable patterns: the empty encoding's model is uniform
		return float64(l.Universe())*0.6931471805599453 - l.EmpiricalEntropy()
	}
	return re
}

// FormatFigure5 prints the three panels' series.
func FormatFigure5(points []Fig5Point) string {
	var sb strings.Builder
	sb.WriteString("Figure 5 (US bank): naive mixture vs Laserlight/MTV refinement\n")
	fmt.Fprintf(&sb, "%4s %12s %12s %12s %14s %12s %10s %10s %10s\n",
		"K", "naive", "naive+LL", "naive+MTV", "LL alone", "MTV alone",
		"naive s", "LL s", "MTV s")
	for _, p := range points {
		fmt.Fprintf(&sb, "%4d %12.4f %12.4f %12.4f %14.4f %12.4f %10.3f %10.3f %10.3f\n",
			p.K, p.NaiveError, p.LaserlightPlus, p.MTVPlus, p.LaserlightAlone, p.MTVAlone,
			p.NaiveSecs, p.LaserlightSecs, p.MTVSecs)
	}
	return sb.String()
}
