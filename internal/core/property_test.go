package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

func randomLog(r *rand.Rand) *Log {
	n := 4 + r.Intn(12)
	l := NewLog(n)
	distinct := 3 + r.Intn(20)
	for i := 0; i < distinct; i++ {
		v := bitvec.New(n)
		for j := 0; j < n; j++ {
			if r.Intn(3) == 0 {
				v.Set(j)
			}
		}
		l.Add(v, 1+r.Intn(50))
	}
	return l
}

func randomMixture(r *rand.Rand, l *Log) (Mixture, []*Log) {
	k := 1 + r.Intn(4)
	labels := make([]int, l.Distinct())
	for i := range labels {
		labels[i] = r.Intn(k)
	}
	asg := cluster.Assignment{Labels: labels, K: k}
	// relabel to avoid empty clusters confusing the component alignment
	seen := map[int]int{}
	for i, lb := range labels {
		if _, ok := seen[lb]; !ok {
			seen[lb] = len(seen)
		}
		labels[i] = seen[lb]
	}
	asg.K = len(seen)
	return BuildNaiveMixture(l, asg)
}

// Property: estimated marginals are probabilities, and containment is
// anti-monotone: a sub-pattern's estimate is at least its super-pattern's.
func TestEstimateMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		mix, _ := randomMixture(r, l)
		n := l.Universe()
		for trial := 0; trial < 10; trial++ {
			big := bitvec.New(n)
			for j := 0; j < n; j++ {
				if r.Intn(4) == 0 {
					big.Set(j)
				}
			}
			sub := bitvec.New(n)
			big.ForEach(func(j int) {
				if r.Intn(2) == 0 {
					sub.Set(j)
				}
			})
			pb := mix.EstimateMarginal(big)
			ps := mix.EstimateMarginal(sub)
			if pb < -1e-12 || pb > 1+1e-12 || ps < -1e-12 || ps > 1+1e-12 {
				return false
			}
			if ps < pb-1e-12 {
				return false // sub-pattern must be at least as frequent
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: the generalized error of a mixture equals the weighted sum of
// component errors, and is never negative.
// Property: the sparse estimate walk gives the same bits as the dense
// product Π_{f ∈ b} p_f in ascending feature order over the log's own
// FeatureMarginals — the estimate's definition.
func TestSparseEstimateMatchesDenseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		e := NaiveEncode(l)
		marg := l.FeatureMarginals()
		for trial := 0; trial < 20; trial++ {
			b := bitvec.New(l.Universe())
			want := 1.0
			for j := range marg {
				if r.Intn(4) == 0 {
					b.Set(j)
					want *= marg[j]
				}
			}
			if got := e.EstimateMarginal(b); got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMixtureErrorDecompositionProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		mix, parts := randomMixture(r, l)
		e, err := mix.Error(parts)
		if err != nil {
			return false
		}
		if e < -1e-9 {
			return false
		}
		var live []*Log
		for _, p := range parts {
			if p.Total() > 0 {
				live = append(live, p)
			}
		}
		want := 0.0
		for i, c := range mix.Components {
			want += mix.Weight(i) * c.ReproductionError(live[i])
		}
		return math.Abs(e-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: weights sum to 1 and per-component counts sum to the log total.
func TestMixtureMassConservationProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		mix, _ := randomMixture(r, l)
		wsum := 0.0
		csum := 0
		for i, c := range mix.Components {
			wsum += mix.Weight(i)
			csum += c.Count
		}
		return math.Abs(wsum-1) < 1e-9 && csum == l.Total()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: a singleton-cluster-per-distinct-query mixture has zero error
// and exactly reproduces every query count (the paper's lossless extreme).
func TestPerQueryPartitionIsLosslessProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		labels := make([]int, l.Distinct())
		for i := range labels {
			labels[i] = i
		}
		mix, parts := BuildNaiveMixture(l, cluster.Assignment{Labels: labels, K: l.Distinct()})
		e, err := mix.Error(parts)
		if err != nil || math.Abs(e) > 1e-9 {
			return false
		}
		for i := 0; i < l.Distinct(); i++ {
			q := l.Vector(i)
			if math.Abs(mix.EstimateCount(q)-float64(l.Count(q))) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: Log.Project preserves totals and marginals of kept features.
func TestProjectPreservesMarginalsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := randomLog(r)
		n := l.Universe()
		var feats []int
		for j := 0; j < n; j++ {
			if r.Intn(2) == 0 {
				feats = append(feats, j)
			}
		}
		if len(feats) == 0 {
			feats = []int{0}
		}
		p := l.Project(feats)
		if p.Total() != l.Total() {
			return false
		}
		orig := l.FeatureMarginals()
		proj := p.FeatureMarginals()
		for pi, f := range feats {
			if math.Abs(orig[f]-proj[pi]) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
