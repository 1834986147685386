package maxent

import (
	"math"
	"math/bits"
	"math/rand"

	"logr/internal/bitvec"
)

// Test helpers: point probabilities, sampling and per-feature marginals of
// a fitted distribution. Production code only fits distributions and reads
// their entropy and pattern marginals; naive encodings score and sample
// through core.Naive's closed form.

// Naive returns the closed-form maximum-entropy distribution for a naive
// encoding: independent Bernoulli features with the given marginals
// (Eq. (1) in the paper).
func Naive(marginals []float64) *Dist {
	n := len(marginals)
	d := &Dist{n: n, bern: make([]float64, n), inBlock: make([]bool, n), blockOf: make([]int, n)}
	for i, p := range marginals {
		d.bern[i] = clampProbLoose(p)
		d.blockOf[i] = -1
	}
	return d
}

// Prob returns the probability of the exact point q.
func (d *Dist) Prob(q bitvec.Vector) float64 {
	return math.Exp(d.LogProb(q))
}

// LogProb returns ln P(Q = q); -Inf if q has probability zero.
func (d *Dist) LogProb(q bitvec.Vector) float64 {
	if q.Len() != d.n {
		panic("maxent: query universe mismatch")
	}
	lp := 0.0
	for i := 0; i < d.n; i++ {
		if d.inBlock[i] {
			continue
		}
		p := d.bern[i]
		if q.Get(i) {
			lp += safeLog(p)
		} else {
			lp += safeLog(1 - p)
		}
	}
	for _, blk := range d.blocks {
		var s uint32
		for li, f := range blk.feats {
			if q.Get(f) {
				s |= 1 << uint(li)
			}
		}
		lp += safeLog(blk.probs[s])
	}
	return lp
}

// Sample draws a random point from the distribution.
func (d *Dist) Sample(rng *rand.Rand) bitvec.Vector {
	v := bitvec.New(d.n)
	for i := 0; i < d.n; i++ {
		if !d.inBlock[i] && rng.Float64() < d.bern[i] {
			v.Set(i)
		}
	}
	for _, blk := range d.blocks {
		x := rng.Float64()
		s := 0
		for ; s < len(blk.probs)-1; s++ {
			x -= blk.probs[s]
			if x <= 0 {
				break
			}
		}
		for li, f := range blk.feats {
			if s&(1<<uint(li)) != 0 {
				v.Set(f)
			}
		}
	}
	return v
}

// FeatureMarginal returns P(X_i = 1).
func (d *Dist) FeatureMarginal(i int) float64 {
	if bi := d.blockOf[i]; bi >= 0 {
		blk := d.blocks[bi]
		li := indexOf(blk.feats, i)
		mask := uint32(1) << uint(li)
		m := 0.0
		for s, pr := range blk.probs {
			if uint32(s)&mask != 0 {
				m += pr
			}
		}
		return m
	}
	return d.bern[i]
}

// clampProbLoose keeps exact 0/1 (naive encodings legitimately contain
// features present in all or none of a partition's queries).
func clampProbLoose(p float64) float64 {
	if p < 0 {
		return 0
	}
	if p > 1 {
		return 1
	}
	return p
}

func safeLog(p float64) float64 {
	if p <= 0 {
		return math.Inf(-1)
	}
	return math.Log(p)
}

// BlockSizes reports the feature-block sizes of the fitted model; useful
// for tests and diagnostics.
func (d *Dist) BlockSizes() []int {
	out := make([]int, len(d.blocks))
	for i, b := range d.blocks {
		out[i] = len(b.feats)
	}
	return out
}

// popcount32 is a tiny helper kept for clarity in tests.
func popcount32(x uint32) int { return bits.OnesCount32(x) }
