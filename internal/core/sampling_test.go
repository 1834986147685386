package core_test

import (
	"math"
	"math/rand"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/maxent"
	"logr/internal/mining"
)

// These tests drive package mining's pattern encodings and Appendix C
// deviation sampler over core logs: the sampler's equivalence classes, and
// the Section 7.1 claims that the Reproduction Error tracks Deviation and
// that more patterns lower Ambiguity (Lemma 2).

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// validationLog builds a moderately diverse log over 10 features with
// planted correlations, mirroring the Section 7.1 setup at small scale.
func validationLog(seed int64) *core.Log {
	r := rand.New(rand.NewSource(seed))
	l := core.NewLog(10)
	for i := 0; i < 200; i++ {
		v := bitvec.New(10)
		// features 0,1 strongly correlated
		if r.Float64() < 0.6 {
			v.Set(0)
			if r.Float64() < 0.9 {
				v.Set(1)
			}
		} else if r.Float64() < 0.2 {
			v.Set(1)
		}
		// features 2,3 anti-correlated
		if r.Float64() < 0.5 {
			v.Set(2)
		} else {
			v.Set(3)
		}
		for j := 4; j < 10; j++ {
			if r.Float64() < 0.3 {
				v.Set(j)
			}
		}
		l.Add(v, 1)
	}
	return l
}

func TestDeviationSamplerClasses(t *testing.T) {
	l := validationLog(1)
	b1 := bitvec.FromIndices(10, 0, 1)
	enc := mining.NewPatternEncoding(l, []bitvec.Vector{b1})
	s, err := mining.NewDeviationSampler(l, enc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes() != 2 {
		t.Errorf("classes = %d, want 2 for a single pattern", s.Classes())
	}
	// two overlapping patterns → up to 4 classes, all non-empty here
	b2 := bitvec.FromIndices(10, 1, 2)
	enc2 := mining.NewPatternEncoding(l, []bitvec.Vector{b1, b2})
	s2, err := mining.NewDeviationSampler(l, enc2)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Classes() != 4 {
		t.Errorf("classes = %d, want 4", s2.Classes())
	}
}

func TestEmptyClassDetection(t *testing.T) {
	// pattern b2 ⊂ b1: the class "contains b1 but not b2" is empty.
	l := validationLog(2)
	b1 := bitvec.FromIndices(10, 0, 1, 2)
	b2 := bitvec.FromIndices(10, 0, 1)
	enc := mining.NewPatternEncoding(l, []bitvec.Vector{b1, b2})
	s, err := mining.NewDeviationSampler(l, enc)
	if err != nil {
		t.Fatal(err)
	}
	if s.Classes() != 3 {
		t.Errorf("classes = %d, want 3 (one signature impossible)", s.Classes())
	}
}

func TestDeviationFiniteAndPositive(t *testing.T) {
	l := validationLog(4)
	enc := mining.NewPatternEncoding(l, []bitvec.Vector{bitvec.FromIndices(10, 0, 1)})
	s, err := mining.NewDeviationSampler(l, enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	d := s.Deviation(50, rng)
	if math.IsNaN(d) || math.IsInf(d, 0) {
		t.Fatalf("deviation = %v", d)
	}
	if d <= 0 {
		t.Errorf("deviation = %g, expected positive (ρ* concentrates on few points)", d)
	}
}

// TestContainmentCapturesDeviation is the small-scale analogue of
// Figure 4a/4b: for encodings E2 ⊃ E1 (more patterns), the expected
// deviation of E2 must not exceed that of E1.
func TestContainmentCapturesDeviation(t *testing.T) {
	l := validationLog(5)
	b1 := bitvec.FromIndices(10, 0, 1)
	b2 := bitvec.FromIndices(10, 2, 4)
	e1 := mining.NewPatternEncoding(l, []bitvec.Vector{b1})
	e2 := mining.NewPatternEncoding(l, []bitvec.Vector{b1, b2})
	if !e2.Contains(e1) {
		t.Fatal("e2 should contain e1")
	}
	s1, err := mining.NewDeviationSampler(l, e1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mining.NewDeviationSampler(l, e2)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	d1 := s1.Deviation(300, rng)
	d2 := s2.Deviation(300, rng)
	if d2 > d1*1.05 {
		t.Errorf("containment violated: d(E2)=%g > d(E1)=%g", d2, d1)
	}
}

// TestAmbiguityCodimMonotone mirrors Lemma 2: adding patterns cannot
// decrease the codimension of the induced space (higher codim = lower
// Ambiguity), and each fresh independent pattern raises it by one.
func TestAmbiguityCodimMonotone(t *testing.T) {
	l := validationLog(6)
	b1 := bitvec.FromIndices(10, 0, 1)
	b2 := bitvec.FromIndices(10, 2, 4)
	b3 := bitvec.FromIndices(10, 5, 6)
	prev := -1
	for k := 1; k <= 3; k++ {
		enc := mining.NewPatternEncoding(l, []bitvec.Vector{b1, b2, b3}[:k])
		s, err := mining.NewDeviationSampler(l, enc)
		if err != nil {
			t.Fatal(err)
		}
		codim := s.AmbiguityCodim()
		if codim <= prev {
			t.Errorf("codim did not grow when adding an independent pattern: %d -> %d", prev, codim)
		}
		prev = codim
	}
}

func TestPatternEncodingHelpers(t *testing.T) {
	l := validationLog(7)
	b1 := bitvec.FromIndices(10, 0, 1)
	b2 := bitvec.FromIndices(10, 2, 4)
	e2 := mining.NewPatternEncoding(l, []bitvec.Vector{b1, b2})
	e1 := mining.NewPatternEncoding(l, []bitvec.Vector{b1})
	diff := e2.Difference(e1)
	if diff.Verbosity() != 1 || !diff.Patterns[0].Equal(b2) {
		t.Errorf("Difference wrong: %v", diff.Patterns)
	}
	if e1.Contains(e2) {
		t.Error("e1 should not contain e2")
	}
}

// TestErrorCapturesDeviation is the small-scale Figure 4c/4d: across
// encodings with the same number of patterns (the paper plots one series
// per pattern count), Reproduction Error and sampled Deviation must
// correlate positively.
func TestErrorCapturesDeviation(t *testing.T) {
	l := validationLog(8)
	pool := []bitvec.Vector{
		bitvec.FromIndices(10, 0, 1),
		bitvec.FromIndices(10, 2, 4),
		bitvec.FromIndices(10, 5, 6),
		bitvec.FromIndices(10, 7, 8),
		bitvec.FromIndices(10, 0, 2),
		bitvec.FromIndices(10, 1, 3),
	}
	rng := rand.New(rand.NewSource(23))
	var errs, devs []float64
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			enc := mining.NewPatternEncoding(l, []bitvec.Vector{pool[i], pool[j]})
			re, err := enc.ReproductionError(l, maxent.Options{})
			if err != nil {
				t.Fatal(err)
			}
			s, err := mining.NewDeviationSampler(l, enc)
			if err != nil {
				t.Fatal(err)
			}
			errs = append(errs, re)
			devs = append(devs, s.Deviation(300, rng))
		}
	}
	if r := pearson(errs, devs); r < 0.4 {
		t.Errorf("Error and Deviation poorly correlated: errs=%v devs=%v (r=%g)",
			errs, devs, r)
	}
}

// TestDeviationEqualsErrorOnDeterminedPolytope: with a single pattern the
// class polytope is 0-dimensional, so the only admitted distribution is the
// max-ent one and d(E) = e(E) exactly (in the projected class space both
// equal KL(ρ*‖ρ_E) up to the within-class uniformity assumption).
func TestDeviationEqualsErrorOnDeterminedPolytope(t *testing.T) {
	l := validationLog(9)
	enc := mining.NewPatternEncoding(l, []bitvec.Vector{bitvec.FromIndices(10, 0, 1)})
	s, err := mining.NewDeviationSampler(l, enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	d := s.Deviation(50, rng)
	re, err := enc.ReproductionError(l, maxent.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(d, re, 1e-6) {
		t.Errorf("deviation %g != error %g on 0-dim polytope", d, re)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy, sxx, syy, sxy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
		sxx += x[i] * x[i]
		syy += y[i] * y[i]
		sxy += x[i] * y[i]
	}
	num := sxy - sx*sy/n
	den := math.Sqrt((sxx - sx*sx/n) * (syy - sy*sy/n))
	if den == 0 {
		return 0
	}
	return num / den
}
