package core

import (
	"math"
	"testing"

	"logr/internal/bitvec"
)

// correlatedLog plants a strong positive correlation between features 0,1
// and leaves 2..5 independent.
func correlatedLog() *Log {
	l := NewLog(6)
	l.Add(bitvec.FromIndices(6, 0, 1, 2), 40) // 0,1 together
	l.Add(bitvec.FromIndices(6, 0, 1, 3), 40)
	l.Add(bitvec.FromIndices(6, 2, 4), 10)
	l.Add(bitvec.FromIndices(6, 3, 5), 10)
	return l
}

func TestFeatureCorrelationSign(t *testing.T) {
	l := correlatedLog()
	e := NaiveEncode(l)
	pos := bitvec.FromIndices(6, 0, 1) // always co-occur → positive correlation
	if wc := FeatureCorrelation(l, e, pos); wc <= 0 {
		t.Errorf("WC(correlated) = %g, want > 0", wc)
	}
	// features 0 and 4 never co-occur → WC is 0 by convention (true
	// marginal 0, log undefined)
	anti := bitvec.FromIndices(6, 0, 4)
	if wc := FeatureCorrelation(l, e, anti); wc != 0 {
		t.Errorf("WC(never co-occur) = %g, want 0", wc)
	}
}

func TestCandidatePatternsSorted(t *testing.T) {
	l := correlatedLog()
	e := NaiveEncode(l)
	cands := CandidatePatterns(l, e, 0.01, 0)
	for i := 1; i < len(cands); i++ {
		if cands[i].Score > cands[i-1].Score+1e-12 {
			t.Fatalf("candidates not sorted by score at %d", i)
		}
	}
	// the strongly correlated pair must rank first
	if len(cands) == 0 || !cands[0].Pattern.Contains(bitvec.FromIndices(6, 0, 1)) {
		t.Errorf("top candidate should involve the planted correlation, got %v", cands)
	}
}

func TestCorrRankFiniteEverywhere(t *testing.T) {
	l := correlatedLog()
	e := NaiveEncode(l)
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			cr := CorrRank(l, e, bitvec.FromIndices(6, i, j))
			if math.IsNaN(cr) || math.IsInf(cr, 0) {
				t.Errorf("corr_rank(%d,%d) = %v", i, j, cr)
			}
		}
	}
}
