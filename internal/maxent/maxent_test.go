package maxent

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"logr/internal/bitvec"
	"logr/internal/stats"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestNaiveEntropyClosedForm(t *testing.T) {
	p := []float64{0.5, 0.25, 1, 0}
	d := Naive(p)
	want := stats.BernoulliEntropy(0.5) + stats.BernoulliEntropy(0.25)
	if !almostEq(d.Entropy(), want, 1e-12) {
		t.Errorf("entropy = %g, want %g", d.Entropy(), want)
	}
}

// TestPaperExample4 reproduces Example 4: under the naive encoding
// 〈2/3, 1/3, 1, 1/3〉 the probability of query (1,0,1,1) is 4/27 and of
// (0,1,1,1) is 1/27.
func TestPaperExample4(t *testing.T) {
	d := Naive([]float64{2.0 / 3, 1.0 / 3, 1, 1.0 / 3})
	q1 := bitvec.FromIndices(4, 0, 2, 3)
	if got := d.Prob(q1); !almostEq(got, 4.0/27, 1e-12) {
		t.Errorf("P(q1) = %g, want %g", got, 4.0/27)
	}
	qBad := bitvec.FromIndices(4, 1, 2, 3)
	if got := d.Prob(qBad); !almostEq(got, 1.0/27, 1e-12) {
		t.Errorf("P(synthesized) = %g, want %g", got, 1.0/27)
	}
}

func TestNaiveMarginals(t *testing.T) {
	d := Naive([]float64{0.9, 0.5, 0.1})
	b := bitvec.FromIndices(3, 0, 2)
	if got := d.PatternMarginal(b); !almostEq(got, 0.09, 1e-12) {
		t.Errorf("marginal = %g, want 0.09", got)
	}
	for i, want := range []float64{0.9, 0.5, 0.1} {
		if got := d.FeatureMarginal(i); !almostEq(got, want, 1e-12) {
			t.Errorf("feature %d marginal = %g, want %g", i, got, want)
		}
	}
}

func TestFitSingleFeaturePatternsEqualsNaive(t *testing.T) {
	// Fitting single-feature constraints must match the closed form.
	n := 5
	targets := []float64{0.1, 0.3, 0.5, 0.7, 0.9}
	var cs []Constraint
	for i, tg := range targets {
		cs = append(cs, Constraint{Pattern: bitvec.FromIndices(n, i), Target: tg})
	}
	d, err := Fit(n, nil, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Naive(targets)
	if !almostEq(d.Entropy(), want.Entropy(), 1e-9) {
		t.Errorf("entropy = %g, want %g", d.Entropy(), want.Entropy())
	}
	for i := range targets {
		if !almostEq(d.FeatureMarginal(i), targets[i], 1e-9) {
			t.Errorf("marginal %d = %g", i, d.FeatureMarginal(i))
		}
	}
}

func TestFitPatternConstraintSatisfied(t *testing.T) {
	n := 6
	fm := []float64{0.5, 0.5, 0.4, 0.6, 0.3, 0.8}
	b := bitvec.FromIndices(n, 0, 1)
	d, err := Fit(n, fm, []Constraint{{Pattern: b, Target: 0.45}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := d.PatternMarginal(b); !almostEq(got, 0.45, 1e-6) {
		t.Errorf("pattern marginal = %g, want 0.45", got)
	}
	// feature marginals inside the block must still hold
	if got := d.FeatureMarginal(0); !almostEq(got, 0.5, 1e-6) {
		t.Errorf("feature 0 marginal = %g, want 0.5", got)
	}
	// independent features unaffected
	if got := d.FeatureMarginal(4); !almostEq(got, 0.3, 1e-9) {
		t.Errorf("feature 4 marginal = %g, want 0.3", got)
	}
}

// TestLemma1 checks Lemma 1's consequence: adding a constraint can only
// shrink the feasible space, so the max-entropy value cannot increase.
func TestLemma1EntropyMonotone(t *testing.T) {
	n := 6
	fm := []float64{0.5, 0.4, 0.6, 0.5, 0.3, 0.7}
	base, err := Fit(n, fm, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b1 := bitvec.FromIndices(n, 0, 1)
	d1, err := Fit(n, fm, []Constraint{{Pattern: b1, Target: 0.35}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d1.Entropy() > base.Entropy()+1e-9 {
		t.Errorf("adding a constraint increased entropy: %g > %g", d1.Entropy(), base.Entropy())
	}
	b2 := bitvec.FromIndices(n, 2, 3)
	d2, err := Fit(n, fm, []Constraint{
		{Pattern: b1, Target: 0.35},
		{Pattern: b2, Target: 0.5},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2.Entropy() > d1.Entropy()+1e-9 {
		t.Errorf("second constraint increased entropy: %g > %g", d2.Entropy(), d1.Entropy())
	}
}

// Property: for random consistent constraint sets (targets computed from an
// actual empirical distribution), iterative scaling reproduces the targets.
func TestFitReproducesConsistentTargets(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(4)
		// random empirical distribution over 40 points
		pts := make([]bitvec.Vector, 40)
		for i := range pts {
			v := bitvec.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					v.Set(j)
				}
			}
			pts[i] = v
		}
		empMarginal := func(b bitvec.Vector) float64 {
			c := 0
			for _, p := range pts {
				if p.Contains(b) {
					c++
				}
			}
			return float64(c) / float64(len(pts))
		}
		fm := make([]float64, n)
		for j := 0; j < n; j++ {
			fm[j] = empMarginal(bitvec.FromIndices(n, j))
		}
		var cs []Constraint
		for k := 0; k < 2; k++ {
			i1, i2 := r.Intn(n), r.Intn(n)
			if i1 == i2 {
				continue
			}
			b := bitvec.FromIndices(n, i1, i2)
			cs = append(cs, Constraint{Pattern: b, Target: empMarginal(b)})
		}
		d, err := Fit(n, fm, cs, Options{})
		if err != nil {
			return false
		}
		for _, c := range cs {
			if !almostEq(d.PatternMarginal(c.Pattern), c.Target, 1e-5) {
				return false
			}
		}
		for j := 0; j < n; j++ {
			if !almostEq(d.FeatureMarginal(j), fm[j], 1e-5) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	n := 10
	cs := []Constraint{
		{Pattern: bitvec.FromIndices(n, 0, 1), Target: 0.3},
		{Pattern: bitvec.FromIndices(n, 1, 2), Target: 0.3}, // shares 1 → same block
		{Pattern: bitvec.FromIndices(n, 5, 6), Target: 0.2}, // separate block
	}
	d, err := Fit(n, nil, cs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := d.BlockSizes()
	if len(sizes) != 2 {
		t.Fatalf("blocks = %v, want 2 blocks", sizes)
	}
	total := sizes[0] + sizes[1]
	if total != 5 { // {0,1,2} and {5,6}
		t.Errorf("block sizes = %v", sizes)
	}
}

func TestBlockTooLarge(t *testing.T) {
	n := 30
	idx := make([]int, 25)
	for i := range idx {
		idx[i] = i
	}
	cs := []Constraint{{Pattern: bitvec.FromIndices(n, idx...), Target: 0.5}}
	if _, err := Fit(n, nil, cs, Options{MaxBlockBits: 10}); err == nil {
		t.Error("expected error for oversized block")
	}
}

func TestLogProbAndSampleConsistency(t *testing.T) {
	n := 5
	fm := []float64{0.8, 0.2, 0.5, 0.9, 0.1}
	b := bitvec.FromIndices(n, 0, 1)
	d, err := Fit(n, fm, []Constraint{{Pattern: b, Target: 0.18}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// estimate the pattern marginal by sampling and compare
	rng := rand.New(rand.NewSource(1))
	hits := 0
	const trials = 200000
	for i := 0; i < trials; i++ {
		if d.Sample(rng).Contains(b) {
			hits++
		}
	}
	got := float64(hits) / trials
	if !almostEq(got, 0.18, 0.01) {
		t.Errorf("sampled marginal = %g, want ≈0.18", got)
	}
	// total probability over all 2^5 points is 1
	sum := 0.0
	for s := 0; s < 1<<uint(n); s++ {
		v := bitvec.New(n)
		for j := 0; j < n; j++ {
			if s&(1<<uint(j)) != 0 {
				v.Set(j)
			}
		}
		sum += d.Prob(v)
	}
	if !almostEq(sum, 1, 1e-9) {
		t.Errorf("probabilities sum to %g", sum)
	}
}

func TestBernoulliEntropy(t *testing.T) {
	if stats.BernoulliEntropy(0) != 0 || stats.BernoulliEntropy(1) != 0 {
		t.Error("degenerate Bernoulli entropy should be 0")
	}
	if !almostEq(stats.BernoulliEntropy(0.5), math.Log(2), 1e-12) {
		t.Errorf("H(0.5) = %g, want ln 2", stats.BernoulliEntropy(0.5))
	}
	// symmetry
	if !almostEq(stats.BernoulliEntropy(0.3), stats.BernoulliEntropy(0.7), 1e-12) {
		t.Error("Bernoulli entropy not symmetric")
	}
}

func TestRejectsBadInput(t *testing.T) {
	n := 3
	if _, err := Fit(n, []float64{0.5}, nil, Options{}); err == nil {
		t.Error("expected length-mismatch error")
	}
	if _, err := Fit(n, nil, []Constraint{{Pattern: bitvec.New(2), Target: 0.5}}, Options{}); err == nil {
		t.Error("expected universe-mismatch error")
	}
	if _, err := Fit(n, nil, []Constraint{{Pattern: bitvec.FromIndices(n, 0), Target: 1.5}}, Options{}); err == nil {
		t.Error("expected target-range error")
	}
	if _, err := Fit(n, nil, []Constraint{{Pattern: bitvec.New(n), Target: 0.5}}, Options{}); err == nil {
		t.Error("expected empty-pattern error")
	}
}

func TestPopcountHelper(t *testing.T) {
	if popcount32(0b1011) != 3 {
		t.Error("popcount32 broken")
	}
}
