package mining

import (
	"math"
	"math/rand"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/core"
)

// plantedLabeled builds a dataset where the outcome is strongly predicted
// by feature 0 ∧ 1 and weakly by feature 4.
func plantedLabeled(seed int64, rows int) *Labeled {
	r := rand.New(rand.NewSource(seed))
	d := NewLabeled(8)
	for i := 0; i < rows; i++ {
		v := bitvec.New(8)
		for j := 0; j < 8; j++ {
			if r.Float64() < 0.4 {
				v.Set(j)
			}
		}
		p := 0.1
		if v.Get(0) && v.Get(1) {
			p = 0.9
		} else if v.Get(4) {
			p = 0.3
		}
		pos := 0
		if r.Float64() < p {
			pos = 1
		}
		d.Add(v, 1, pos)
	}
	return d
}

func plantedLog(seed int64, rows int) *core.Log {
	r := rand.New(rand.NewSource(seed))
	l := core.NewLog(10)
	for i := 0; i < rows; i++ {
		v := bitvec.New(10)
		// itemset {0,1,2} co-occurs
		if r.Float64() < 0.5 {
			v.Set(0)
			v.Set(1)
			if r.Float64() < 0.8 {
				v.Set(2)
			}
		}
		for j := 3; j < 10; j++ {
			if r.Float64() < 0.25 {
				v.Set(j)
			}
		}
		l.Add(v, 1)
	}
	return l
}

func TestLabeledBasics(t *testing.T) {
	d := NewLabeled(4)
	v := bitvec.FromIndices(4, 0, 2)
	d.Add(v, 10, 4)
	d.Add(v, 5, 1)
	if d.Total() != 15 || d.Distinct() != 1 {
		t.Fatalf("total=%d distinct=%d", d.Total(), d.Distinct())
	}
	if got := d.PositiveRate(); math.Abs(got-5.0/15) > 1e-12 {
		t.Errorf("PositiveRate = %g", got)
	}
	rows, pos := d.Support(bitvec.FromIndices(4, 0))
	if rows != 15 || pos != 5 {
		t.Errorf("Support = %d, %d", rows, pos)
	}
}

func TestLaserlightReducesError(t *testing.T) {
	d := plantedLabeled(1, 800)
	naive := LaserlightNaiveError(d)
	m := Laserlight(d, LaserlightOptions{Patterns: 8, Seed: 1})
	if len(m.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	if m.Error() >= naive {
		t.Errorf("laserlight error %g not below naive %g", m.Error(), naive)
	}
}

func TestLaserlightErrorMonotoneInPatterns(t *testing.T) {
	d := plantedLabeled(2, 600)
	prev := math.Inf(1)
	for _, k := range []int{1, 4, 8} {
		m := Laserlight(d, LaserlightOptions{Patterns: k, Seed: 3})
		e := m.Error()
		if e > prev+1e-6 {
			t.Errorf("error grew from %g to %g at %d patterns", prev, e, k)
		}
		prev = e
	}
}

func TestLaserlightEstimateCalibrated(t *testing.T) {
	d := plantedLabeled(4, 2000)
	m := Laserlight(d, LaserlightOptions{Patterns: 6, Seed: 5})
	// model average must match the global positive rate (bias constraint)
	avg := 0.0
	for i := 0; i < d.Distinct(); i++ {
		avg += float64(d.Count(i)) * m.Estimate(d.Vector(i))
	}
	avg /= float64(d.Total())
	if math.Abs(avg-d.PositiveRate()) > 1e-3 {
		t.Errorf("model mean %g, want %g", avg, d.PositiveRate())
	}
}

func TestFrequentItemsets(t *testing.T) {
	l := core.NewLog(5)
	l.Add(bitvec.FromIndices(5, 0, 1, 2), 60)
	l.Add(bitvec.FromIndices(5, 0, 1), 20)
	l.Add(bitvec.FromIndices(5, 3), 20)
	sets := FrequentItemsets(l, 0.5, 3, 0)
	bySize := map[int]int{}
	found012 := false
	for _, s := range sets {
		bySize[s.Items.Count()]++
		if s.Items.Equal(bitvec.FromIndices(5, 0, 1, 2)) {
			found012 = true
			if math.Abs(s.Support-0.6) > 1e-12 {
				t.Errorf("support(012) = %g, want 0.6", s.Support)
			}
		}
		if l.Marginal(s.Items) < 0.5 {
			t.Errorf("itemset %s below minsup", s.Items)
		}
	}
	if !found012 {
		t.Error("missing frequent triple {0,1,2}")
	}
	if bySize[1] != 3 { // features 0,1,2 each at 0.6/0.8/0.6... recount: 0→0.8, 1→0.8, 2→0.6, 3→0.2
		t.Errorf("size-1 itemsets = %d, want 3", bySize[1])
	}
}

func TestMTVFindsPlantedItemset(t *testing.T) {
	l := plantedLog(3, 800)
	m, err := MTV(l, MTVOptions{Patterns: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Patterns) == 0 {
		t.Fatal("no itemsets mined")
	}
	// the planted pair {0,1} (or a superset) should appear among the picks
	want := bitvec.FromIndices(10, 0, 1)
	found := false
	for _, p := range m.Patterns {
		if p.Contains(want) || want.Contains(p) && p.Count() > 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("planted correlation not mined: %v", m.Patterns)
	}
}

func TestMTVErrorImproves(t *testing.T) {
	l := plantedLog(5, 800)
	naive := MTVNaiveError(l)
	_ = naive
	m1, err := MTV(l, MTVOptions{Patterns: 2})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MTV(l, MTVOptions{Patterns: 10})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Error() > m1.Error()+1e-6 {
		t.Errorf("MTV error grew with more patterns: %g -> %g", m1.Error(), m2.Error())
	}
}

func TestMTVModelMatchesSupports(t *testing.T) {
	l := plantedLog(7, 500)
	m, err := MTV(l, MTVOptions{Patterns: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range m.Patterns {
		got := m.Dist.PatternMarginal(p)
		if math.Abs(got-m.Supports[i]) > 1e-4 {
			t.Errorf("model support %g, want %g for %s", got, m.Supports[i], p)
		}
	}
}

func TestAppendixD3Weights(t *testing.T) {
	// a pure cluster (zero error) gets zero budget; a diverse one gets all
	pure := core.NewLog(4)
	pure.Add(bitvec.FromIndices(4, 0, 1), 50)
	diverse := core.NewLog(4)
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		v := bitvec.New(4)
		for j := 0; j < 4; j++ {
			if r.Intn(2) == 0 {
				v.Set(j)
			}
		}
		diverse.Add(v, 1)
	}
	w := AppendixD3Weights([]*core.Log{pure, diverse})
	if w[0] != 0 {
		t.Errorf("pure cluster weight = %g, want 0", w[0])
	}
	if math.Abs(w[1]-1) > 1e-12 {
		t.Errorf("diverse cluster weight = %g, want 1", w[1])
	}
}

func TestDistributeBudget(t *testing.T) {
	got := distributeBudget([]float64{0.5, 0.3, 0.2}, 10)
	sum := 0
	for _, g := range got {
		sum += g
	}
	if sum != 10 {
		t.Errorf("budget sums to %d", sum)
	}
	if got[0] != 5 || got[1] != 3 || got[2] != 2 {
		t.Errorf("budget = %v", got)
	}
}

func TestLaserlightMixtureImproves(t *testing.T) {
	// Figure 8a's shape: partitioned Laserlight with the same global budget
	// reaches equal or lower error than classical on mixed data.
	d := NewLabeled(8)
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 400; i++ {
		v := bitvec.New(8)
		var p float64
		if i%2 == 0 { // workload A on features 0..3
			for j := 0; j < 4; j++ {
				if r.Float64() < 0.5 {
					v.Set(j)
				}
			}
			p = 0.8
			if !v.Get(0) {
				p = 0.2
			}
		} else { // workload B on features 4..7
			for j := 4; j < 8; j++ {
				if r.Float64() < 0.5 {
					v.Set(j)
				}
			}
			p = 0.7
			if !v.Get(5) {
				p = 0.1
			}
		}
		pos := 0
		if r.Float64() < p {
			pos = 1
		}
		d.Add(v, 1, pos)
	}
	classical := Laserlight(d, LaserlightOptions{Patterns: 6, Seed: 13})
	asg := cluster.KMeansBinary(d.Binary(), cluster.KMeansOptions{K: 2, Seed: 1, Restarts: 3})
	parts := d.Partition(asg)
	mixed := LaserlightMixtureFixed(parts, 6, LaserlightOptions{Seed: 13})
	if mixed.Error > classical.Error()*1.2 {
		t.Errorf("mixture error %g much worse than classical %g", mixed.Error, classical.Error())
	}
}

func TestMTVMixtureScaledRunsAndCaps(t *testing.T) {
	l := plantedLog(13, 400)
	asg := cluster.KMeansBinary(l.Binary(), cluster.KMeansOptions{K: 2, Seed: 1})
	parts := l.Partition(asg)
	res, err := MTVMixtureScaled(parts, 15, MTVOptions{Patterns: 15})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.PatternsPerCluster {
		if b > 15 {
			t.Errorf("cluster budget %d exceeds MTV ceiling", b)
		}
	}
	if res.Error <= 0 {
		t.Errorf("mixture error = %g", res.Error)
	}
}

func TestLabelByFeature(t *testing.T) {
	l := core.NewLog(4)
	l.Add(bitvec.FromIndices(4, 0, 2), 10) // feature 2 present
	l.Add(bitvec.FromIndices(4, 1), 5)
	d, mapping := LabelByFeature(l, 2)
	if d.Universe() != 3 {
		t.Fatalf("universe = %d, want 3", d.Universe())
	}
	if mapping[2] != -1 || mapping[3] != 2 {
		t.Errorf("mapping = %v", mapping)
	}
	if d.Total() != 15 || d.PositiveRate() != 10.0/15 {
		t.Errorf("total=%d rate=%g", d.Total(), d.PositiveRate())
	}
}

func TestHighestEntropyFeature(t *testing.T) {
	l := core.NewLog(3)
	l.Add(bitvec.FromIndices(3, 0), 50)      // f0 at 100%? no: see below
	l.Add(bitvec.FromIndices(3, 0, 1), 50)   // f0=1.0, f1=0.5
	l.Add(bitvec.FromIndices(3, 0, 1, 2), 2) // f2 rare
	if got := HighestEntropyFeature(l); got != 1 {
		t.Errorf("HighestEntropyFeature = %d, want 1", got)
	}
}

func TestNaiveMixtureErrorsDropWithClusters(t *testing.T) {
	// MTV-error of a naive mixture over the true 2-way split beats 1 cluster
	l := core.NewLog(8)
	l.Add(bitvec.FromIndices(8, 0, 1, 2), 50)
	l.Add(bitvec.FromIndices(8, 0, 1, 3), 50)
	l.Add(bitvec.FromIndices(8, 4, 5, 6), 50)
	l.Add(bitvec.FromIndices(8, 4, 5, 7), 50)
	one := MTVNaiveMixtureError([]*core.Log{l})
	asg := cluster.Assignment{Labels: []int{0, 0, 1, 1}, K: 2}
	two := MTVNaiveMixtureError(l.Partition(asg))
	if two >= one {
		t.Errorf("2-cluster MTV naive error %g not below 1-cluster %g", two, one)
	}
}

func TestFlashlightQualityVsLaserlight(t *testing.T) {
	// With the same pattern budget, Flashlight's exhaustive candidate pool
	// should match or beat Laserlight's sampled pool — at higher cost.
	d := plantedLabeled(21, 600)
	fl := Flashlight(d, FlashlightOptions{Patterns: 6})
	ll := Laserlight(d, LaserlightOptions{Patterns: 6, Seed: 21})
	if fl.Error() > ll.Error()*1.05 {
		t.Errorf("flashlight error %g worse than laserlight %g", fl.Error(), ll.Error())
	}
	if len(fl.Patterns) == 0 {
		t.Fatal("flashlight mined nothing")
	}
}

func TestFlashlightCandidateBound(t *testing.T) {
	d := plantedLabeled(22, 400)
	m := Flashlight(d, FlashlightOptions{Patterns: 3, MaxCandidates: 10})
	if len(m.Patterns) > 3 {
		t.Errorf("mined %d patterns, budget 3", len(m.Patterns))
	}
}

func TestFlashlightErrorTraceMonotone(t *testing.T) {
	d := plantedLabeled(23, 500)
	m := Flashlight(d, FlashlightOptions{Patterns: 5})
	for i := 1; i < len(m.ErrorTrace); i++ {
		if m.ErrorTrace[i] > m.ErrorTrace[i-1]+1e-6 {
			t.Errorf("error rose at step %d: %g -> %g", i, m.ErrorTrace[i-1], m.ErrorTrace[i])
		}
	}
}
