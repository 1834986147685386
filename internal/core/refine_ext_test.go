package core_test

// The refinement of a naive encoding is mining.PatternEncoding, which
// imports core, so the tests that fit refined encodings run here, in the
// external test package.

import (
	"testing"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/maxent"
	"logr/internal/mining"
)

func TestCorrRankOrdersByErrorReduction(t *testing.T) {
	// Figure 4e/4f's claim: higher corr_rank → larger Error reduction when
	// the pattern joins the naive encoding.
	l := core.CorrelatedLog()
	e := core.NaiveEncode(l)
	base := e.ReproductionError(l)

	strong := bitvec.FromIndices(6, 0, 1)
	weak := bitvec.FromIndices(6, 2, 4)
	if core.CorrRank(l, e, strong) <= core.CorrRank(l, e, weak) {
		t.Fatalf("corr_rank(strong)=%g should beat corr_rank(weak)=%g",
			core.CorrRank(l, e, strong), core.CorrRank(l, e, weak))
	}
	errStrong := refinedError(t, l, e, strong)
	errWeak := refinedError(t, l, e, weak)
	if base-errStrong < base-errWeak-1e-9 {
		t.Errorf("strong pattern reduced error by %g, weak by %g; order disagrees with corr_rank",
			base-errStrong, base-errWeak)
	}
}

func refinedError(t *testing.T, l *core.Log, e core.Naive, b bitvec.Vector) float64 {
	t.Helper()
	r := mining.WithPatterns(l, e, []bitvec.Vector{b})
	got, err := r.ReproductionError(l, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestWithPatternsSkipsTrivial(t *testing.T) {
	l := core.CorrelatedLog()
	e := core.NaiveEncode(l)
	r := mining.WithPatterns(l, e, []bitvec.Vector{
		bitvec.New(6),               // empty
		bitvec.FromIndices(6, 0),    // single-feature (already naive)
		bitvec.FromIndices(6, 0, 1), // genuine
	})
	if len(r.Patterns) != 1 {
		t.Errorf("Patterns = %d patterns, want 1", len(r.Patterns))
	}
}

func TestRefinedEncodingVerbosity(t *testing.T) {
	l := core.CorrelatedLog()
	e := core.NaiveEncode(l)
	r := mining.WithPatterns(l, e, []bitvec.Vector{bitvec.FromIndices(6, 0, 1)})
	if r.Verbosity() != e.Verbosity()+1 {
		t.Errorf("Verbosity = %d, want %d", r.Verbosity(), e.Verbosity()+1)
	}
}
