package core

import (
	"math"
	"math/rand"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// section51Log builds the toy log of Section 5.1:
//
//	q1 = 〈1,0,1,1〉, q2 = 〈1,0,1,0〉, q3 = 〈0,1,1,0〉
//
// over features (id, sms_type, Messages, status=?).
func section51Log() *Log {
	l := NewLog(4)
	l.Add(bitvec.FromIndices(4, 0, 2, 3), 1)
	l.Add(bitvec.FromIndices(4, 0, 2), 1)
	l.Add(bitvec.FromIndices(4, 1, 2), 1)
	return l
}

func TestLogBasics(t *testing.T) {
	l := section51Log()
	if l.Total() != 3 || l.Distinct() != 3 {
		t.Fatalf("total=%d distinct=%d", l.Total(), l.Distinct())
	}
	l.Add(bitvec.FromIndices(4, 0, 2), 2)
	if l.Total() != 5 || l.Distinct() != 3 {
		t.Fatalf("after dup add: total=%d distinct=%d", l.Total(), l.Distinct())
	}
	if l.MaxMultiplicity() != 3 {
		t.Errorf("MaxMultiplicity = %d", l.MaxMultiplicity())
	}
}

// TestSection51NaiveEncoding checks the paper's worked naive encoding
// 〈2/3, 1/3, 1, 1/3〉.
func TestSection51NaiveEncoding(t *testing.T) {
	e := NaiveEncode(section51Log())
	want := []float64{2.0 / 3, 1.0 / 3, 1, 1.0 / 3}
	for i, w := range want {
		if !almostEq(e.Marginal(i), w, 1e-12) {
			t.Errorf("marginal[%d] = %g, want %g", i, e.Marginal(i), w)
		}
	}
	if e.Verbosity() != 4 {
		t.Errorf("verbosity = %d, want 4", e.Verbosity())
	}
}

// TestExample4Probabilities checks the paper's Example 4: under the naive
// encoding, P(q1) = 4/27 ≈ 0.148 (vs true 1/3), and the phantom query
// (sms_type, Messages, status=?) gets 1/27 ≈ 0.037.
func TestExample4Probabilities(t *testing.T) {
	l := section51Log()
	e := NaiveEncode(l)
	d := e.Dist(4)
	q1 := bitvec.FromIndices(4, 0, 2, 3)
	if got := d.Prob(q1); !almostEq(got, 4.0/27, 1e-12) {
		t.Errorf("P(q1) = %g, want 4/27", got)
	}
	phantom := bitvec.FromIndices(4, 1, 2, 3)
	if got := d.Prob(phantom); !almostEq(got, 1.0/27, 1e-12) {
		t.Errorf("P(phantom) = %g, want 1/27", got)
	}
	if l.Prob(phantom) != 0 {
		t.Error("phantom query should not be in the log")
	}
}

// TestSection51PerfectPartition reproduces the key worked example: splitting
// the toy log into {q1,q2} and {q3} yields a mixture whose Reproduction
// Error is exactly zero for both components.
func TestSection51PerfectPartition(t *testing.T) {
	l := section51Log()
	asg := cluster.Assignment{Labels: []int{0, 0, 1}, K: 2}
	mix, parts := BuildNaiveMixture(l, asg)
	// Partition 1 encoding 〈1, 0, 1, ½〉, partition 2 encoding 〈0, 1, 1, 0〉.
	e1 := mix.Components[0]
	want1 := []float64{1, 0, 1, 0.5}
	for i, w := range want1 {
		if !almostEq(e1.Marginal(i), w, 1e-12) {
			t.Errorf("partition 1 marginal[%d] = %g, want %g", i, e1.Marginal(i), w)
		}
	}
	errTotal, err := mix.Error(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(errTotal, 0, 1e-12) {
		t.Errorf("generalized error = %g, want 0", errTotal)
	}
}

func TestReproductionErrorNonNegativeOnLogs(t *testing.T) {
	// ρ* is always in Ω_E, so the max-entropy model can't have lower
	// entropy than ρ*... for the *naive* encoding this holds because the
	// independent product with matching marginals maximizes entropy.
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 3 + r.Intn(6)
		l := NewLog(n)
		for i := 0; i < 20; i++ {
			v := bitvec.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(2) == 0 {
					v.Set(j)
				}
			}
			l.Add(v, 1+r.Intn(5))
		}
		e := NaiveEncode(l)
		if got := e.ReproductionError(l); got < -1e-9 {
			t.Fatalf("negative reproduction error %g", got)
		}
	}
}

func TestGeneralizedErrorIsWeightedSum(t *testing.T) {
	l := section51Log()
	l.Add(bitvec.FromIndices(4, 0, 1, 2, 3), 5)
	asg := cluster.Assignment{Labels: []int{0, 0, 1, 1}, K: 2}
	mix, parts := BuildNaiveMixture(l, asg)
	want := 0.0
	for i, c := range mix.Components {
		want += mix.Weight(i) * c.ReproductionError(parts[i])
	}
	got, err := mix.Error(parts)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(got, want, 1e-12) {
		t.Errorf("Error = %g, want weighted sum %g", got, want)
	}
}

func TestTotalVerbosity(t *testing.T) {
	l := section51Log()
	asg := cluster.Assignment{Labels: []int{0, 0, 1}, K: 2}
	mix, _ := BuildNaiveMixture(l, asg)
	// partition 1 uses features {0,2,3}; partition 2 uses {1,2}
	if v := mix.TotalVerbosity(); v != 5 {
		t.Errorf("TotalVerbosity = %d, want 5", v)
	}
	// splitting a partition duplicates shared features (Section 6.1:
	// "features common to both partitions each increase the Verbosity")
	single, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 0}, K: 1})
	if single.TotalVerbosity() >= mix.TotalVerbosity()+1 {
		t.Errorf("1-cluster verbosity %d should be below 2-cluster %d",
			single.TotalVerbosity(), mix.TotalVerbosity())
	}
}

func TestEstimateCountExactOnPureCluster(t *testing.T) {
	// A cluster where all queries are identical estimates its own pattern
	// counts exactly.
	l := NewLog(3)
	q := bitvec.FromIndices(3, 0, 2)
	l.Add(q, 10)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0}, K: 1})
	if got := mix.EstimateCount(q); !almostEq(got, 10, 1e-9) {
		t.Errorf("EstimateCount = %g, want 10", got)
	}
	sub := bitvec.FromIndices(3, 0)
	if got := mix.EstimateCount(sub); !almostEq(got, 10, 1e-9) {
		t.Errorf("EstimateCount(sub) = %g, want 10", got)
	}
	absent := bitvec.FromIndices(3, 1)
	if got := mix.EstimateCount(absent); !almostEq(got, 0, 1e-9) {
		t.Errorf("EstimateCount(absent) = %g, want 0", got)
	}
}

func TestEstimateMatchesSection51(t *testing.T) {
	// With the perfect 2-way partition the mixture reproduces every
	// query's true marginal exactly (zero-error encoding).
	l := section51Log()
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	for i := 0; i < l.Distinct(); i++ {
		q := l.Vector(i)
		want := float64(l.Count(q))
		if got := mix.EstimateCount(q); !almostEq(got, want, 1e-9) {
			t.Errorf("EstimateCount(%s) = %g, want %g", q, got, want)
		}
	}
}

func TestPartition(t *testing.T) {
	l := section51Log()
	parts := l.Partition(cluster.Assignment{Labels: []int{0, 1, 0}, K: 2})
	if parts[0].Total() != 2 || parts[1].Total() != 1 {
		t.Errorf("partition totals = %d, %d", parts[0].Total(), parts[1].Total())
	}
	if parts[0].Universe() != 4 {
		t.Errorf("partition universe = %d", parts[0].Universe())
	}
}

func TestProjectAndSelectFeatures(t *testing.T) {
	l := NewLog(5)
	l.Add(bitvec.FromIndices(5, 0, 4), 50) // feature 0, 4 at 50%... with next line
	l.Add(bitvec.FromIndices(5, 1, 4), 50) // feature 4 marginal 1.0, 0/1 at 0.5
	sel := l.SelectFeatures(0.01, 0.99, 0)
	if len(sel) != 2 {
		t.Fatalf("SelectFeatures = %v, want 2 informative features", sel)
	}
	p := l.Project(sel)
	if p.Universe() != 2 || p.Total() != 100 {
		t.Errorf("projected universe=%d total=%d", p.Universe(), p.Total())
	}
	if p.Distinct() != 2 {
		t.Errorf("projected distinct = %d, want 2", p.Distinct())
	}
}

func TestEmpiricalEntropy(t *testing.T) {
	l := NewLog(2)
	l.Add(bitvec.FromIndices(2, 0), 1)
	l.Add(bitvec.FromIndices(2, 1), 1)
	if !almostEq(l.EmpiricalEntropy(), math.Log(2), 1e-12) {
		t.Errorf("H = %g, want ln 2", l.EmpiricalEntropy())
	}
	// Example 2: probabilities {0.5, 0.25, 0.25}
	l2 := NewLog(6)
	l2.Add(bitvec.FromIndices(6, 0, 3, 5), 2) // q1 = q3
	l2.Add(bitvec.FromIndices(6, 1, 3, 4, 5), 1)
	l2.Add(bitvec.FromIndices(6, 1, 2, 4, 5), 1)
	want := -(0.5*math.Log(0.5) + 2*0.25*math.Log(0.25))
	if !almostEq(l2.EmpiricalEntropy(), want, 1e-12) {
		t.Errorf("H = %g, want %g", l2.EmpiricalEntropy(), want)
	}
}

func TestMoreClustersReduceError(t *testing.T) {
	// Build a log of two disjoint workloads plus noise; error with K=2
	// (true split) must be below K=1.
	r := rand.New(rand.NewSource(5))
	n := 12
	l := NewLog(n)
	for i := 0; i < 30; i++ {
		v := bitvec.New(n)
		for j := 0; j < 6; j++ {
			if r.Float64() < 0.7 {
				v.Set(j)
			}
		}
		l.Add(v, 1)
		w := bitvec.New(n)
		for j := 6; j < 12; j++ {
			if r.Float64() < 0.7 {
				w.Set(j)
			}
		}
		l.Add(w, 1)
	}
	c1, err := Compress(l, CompressOptions{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Compress(l, CompressOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Err >= c1.Err {
		t.Errorf("K=2 error %g not below K=1 error %g", c2.Err, c1.Err)
	}
}

func TestCompressAutoK(t *testing.T) {
	l := section51Log()
	c, err := Compress(l, CompressOptions{TargetError: 1e-9, MaxK: 4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c.Err > 1e-9 {
		t.Errorf("auto sweep stopped at error %g (K=%d)", c.Err, c.Mixture.K())
	}
}

func TestCompressMethods(t *testing.T) {
	l := section51Log()
	for _, m := range []Method{KMeansMethod, SpectralMethod, HierarchicalMethod} {
		c, err := Compress(l, CompressOptions{K: 2, Method: m, Metric: cluster.Hamming, Seed: 1})
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if c.Mixture.K() < 1 || c.Mixture.K() > 2 {
			t.Errorf("%v: K = %d", m, c.Mixture.K())
		}
	}
}

func TestSynthesisErrorZeroOnPerfectEncoding(t *testing.T) {
	l := section51Log()
	mix, parts := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	rng := rand.New(rand.NewSource(7))
	got := mix.SynthesisError(parts, 500, rng)
	// partition 2 is a point mass (always synthesizes q3); partition 1
	// synthesizes q1/q2 which both exist. Error should be ≈ 0.
	if got > 1e-9 {
		t.Errorf("synthesis error = %g, want 0", got)
	}
}

func TestMarginalDeviationZeroOnPerfectEncoding(t *testing.T) {
	l := section51Log()
	mix, parts := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	if got := mix.MarginalDeviation(parts); got > 1e-9 {
		t.Errorf("marginal deviation = %g, want 0", got)
	}
}

func TestSynthesisErrorPositiveOnCoarseEncoding(t *testing.T) {
	// One cluster over anti-correlated workloads synthesizes phantom
	// cross-workload patterns.
	l := NewLog(8)
	l.Add(bitvec.FromIndices(8, 0, 1, 2, 3), 50)
	l.Add(bitvec.FromIndices(8, 4, 5, 6, 7), 50)
	mix, parts := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0}, K: 1})
	rng := rand.New(rand.NewSource(9))
	got := mix.SynthesisError(parts, 2000, rng)
	if got < 0.5 {
		t.Errorf("synthesis error = %g, expected large for anti-correlated mix", got)
	}
	mix2, parts2 := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 1}, K: 2})
	if got2 := mix2.SynthesisError(parts2, 2000, rng); got2 > 1e-9 {
		t.Errorf("2-cluster synthesis error = %g, want 0", got2)
	}
}
