package mining

import (
	"math"
	"math/rand"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/core"
)

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

func TestSampledDistributionSatisfiesConstraints(t *testing.T) {
	l := validationLog(3)
	b1 := bitvec.FromIndices(10, 0, 1)
	b2 := bitvec.FromIndices(10, 2, 4)
	enc := NewPatternEncoding(l, []bitvec.Vector{b1, b2})
	s, err := NewDeviationSampler(l, enc)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		p := s.SampleDistribution(rng)
		sum := 0.0
		for _, v := range p {
			if v < -1e-9 {
				t.Fatalf("negative class probability %g", v)
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Fatalf("class probabilities sum to %g", sum)
		}
		// marginal of pattern 1 = mass of classes with bit 0 set
		m1 := 0.0
		for i := 0; i < s.Classes(); i++ {
			if s.classes[i].sig&1 != 0 {
				m1 += p[i]
			}
		}
		if math.Abs(m1-enc.Marginals[0]) > 5e-2 {
			t.Errorf("sampled marginal %g, want %g", m1, enc.Marginals[0])
		}
	}
}

func BenchmarkDeviationSampler(b *testing.B) {
	l := validationLog(1)
	enc := NewPatternEncoding(l, []bitvec.Vector{
		bitvec.FromIndices(10, 0, 1),
		bitvec.FromIndices(10, 6, 7),
	})
	s, err := NewDeviationSampler(l, enc)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = s.KL(s.SampleDistribution(rng))
	}
}
