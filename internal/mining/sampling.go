package mining

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"

	"logr/internal/bitvec"
	"logr/internal/core"
	"logr/internal/linalg"
)

// Deviation and Ambiguity (Section 3.3) are defined over the space Ω_E of
// all distributions consistent with an encoding. Neither has a closed form;
// this file implements the Appendix C sampling scheme used to approximate
// Deviation for the Section 7.1 validation experiments:
//
//  1. Queries are grouped into encoding-equivalence classes by their
//     containment signature against the encoding's patterns; the class
//     cardinalities over {0,1}^n follow from inclusion–exclusion.
//  2. Random class-probability vectors are drawn from the constrained
//     polytope {p ≥ 0, Σp = 1, marginal constraints} — Appendix C projects
//     simplex samples onto the constraint hyperplanes; we harden that into
//     a hit-and-run walk started from the polytope's maximum-entropy
//     interior point, which respects non-negativity exactly and so keeps
//     KL(ρ*‖ρ) almost surely finite.
//  3. Each sampled distribution ρ spreads a class's mass uniformly over its
//     members, making KL(ρ*‖ρ) computable from the support of ρ* alone.
//     Deviation d(E) is the Monte-Carlo mean.

// DeviationSampler estimates d(E) for one pattern encoding over a fixed log.
type DeviationSampler struct {
	enc PatternEncoding
	log *core.Log

	classes  []classInfo
	classOf  map[uint64]int // signature → class index
	queryCls []int          // class of each distinct log vector

	// hit-and-run state
	basis   [][]float64 // orthonormal basis of the constraint null space
	start   []float64   // strictly positive feasible point (max-ent)
	current []float64   // walker position
}

type classInfo struct {
	sig     uint64  // containment signature (bit j ↔ pattern j)
	logCard float64 // ln |C_v| over {0,1}^n
}

// NewDeviationSampler prepares the equivalence-class structure. The number
// of patterns in the encoding must be ≤ 20 (the Section 7.1 experiments use
// at most 3).
func NewDeviationSampler(l *core.Log, enc PatternEncoding) (*DeviationSampler, error) {
	m := len(enc.Patterns)
	if m > 20 {
		return nil, fmt.Errorf("mining: %d patterns exceed the sampler's 2^m class budget", m)
	}
	if enc.Universe != l.Universe() {
		return nil, fmt.Errorf("mining: encoding universe %d != log universe %d", enc.Universe, l.Universe())
	}
	s := &DeviationSampler{enc: enc, log: l, classOf: map[uint64]int{}}

	n := l.Universe()
	// unionSize[T] = |union of patterns in subset T| for all 2^m subsets.
	size := 1 << uint(m)
	unionSize := make([]int, size)
	unions := make([]bitvec.Vector, size)
	unions[0] = bitvec.New(n)
	for t := 1; t < size; t++ {
		low := t & (-t)
		j := bits.TrailingZeros(uint(low))
		unions[t] = unions[t^low].Or(enc.Patterns[j])
		unionSize[t] = unions[t].Count()
	}

	// For each signature v: |C_v| = Σ_{T ⊇ V} (−1)^{|T\V|} 2^{n−u_T}
	//                            = 2^{n−u_V} · Σ_{T ⊇ V} (−1)^{|T\V|} 2^{u_V−u_T}
	// The bracketed factor f_v lies in [0,1] and decides emptiness.
	for v := 0; v < size; v++ {
		f := 0.0
		rest := ^v & (size - 1)
		for sub := rest; ; sub = (sub - 1) & rest {
			t := v | sub
			sign := 1.0
			if bits.OnesCount(uint(sub))%2 == 1 {
				sign = -1
			}
			f += sign * math.Exp2(float64(unionSize[v]-unionSize[t]))
			if sub == 0 {
				break
			}
		}
		if f > 1e-12 {
			idx := len(s.classes)
			s.classes = append(s.classes, classInfo{
				sig:     uint64(v),
				logCard: float64(n-unionSize[v])*math.Ln2 + math.Log(f),
			})
			s.classOf[uint64(v)] = idx
		}
	}

	// map every distinct log vector to its class
	s.queryCls = make([]int, l.Distinct())
	for i := 0; i < l.Distinct(); i++ {
		q := l.Vector(i)
		var sig uint64
		for j, b := range enc.Patterns {
			if q.Contains(b) {
				sig |= 1 << uint(j)
			}
		}
		ci, ok := s.classOf[sig]
		if !ok {
			return nil, fmt.Errorf("mining: log vector fell into an empty class (inconsistent encoding)")
		}
		s.queryCls[i] = ci
	}

	if err := s.prepareWalk(); err != nil {
		return nil, err
	}
	return s, nil
}

// Classes returns the number of non-empty equivalence classes.
func (s *DeviationSampler) Classes() int { return len(s.classes) }

// constraintMatrix returns the (m+1) × k matrix whose rows are the
// normalization row (all ones) and one indicator row per pattern, plus the
// right-hand sides.
func (s *DeviationSampler) constraintMatrix() (*linalg.Matrix, []float64) {
	k := len(s.classes)
	m := len(s.enc.Patterns)
	a := linalg.NewMatrix(m+1, k)
	b := make([]float64, m+1)
	for i := 0; i < k; i++ {
		a.Set(0, i, 1)
	}
	b[0] = 1
	for j := 0; j < m; j++ {
		for i, c := range s.classes {
			if c.sig&(1<<uint(j)) != 0 {
				a.Set(j+1, i, 1)
			}
		}
		b[j+1] = s.enc.Marginals[j]
	}
	return a, b
}

// prepareWalk computes the interior starting point and a basis of the
// constraint null space.
func (s *DeviationSampler) prepareWalk() error {
	k := len(s.classes)
	s.start = s.interiorPoint()
	s.current = append([]float64(nil), s.start...)

	// Null-space basis: project each standard basis vector onto the null
	// space (x − Aᵀ(AAᵀ)⁻¹Ax), then Gram–Schmidt.
	a, _ := s.constraintMatrix()
	zero := make([]float64, len(s.enc.Patterns)+1)
	var basis [][]float64
	for i := 0; i < k; i++ {
		e := make([]float64, k)
		e[i] = 1
		p, err := linalg.ProjectAffine(a, zero, e) // projection onto {Ax = 0}
		if err != nil {
			return err
		}
		// Gram–Schmidt against existing basis
		for _, bv := range basis {
			dot := 0.0
			for j := range p {
				dot += p[j] * bv[j]
			}
			for j := range p {
				p[j] -= dot * bv[j]
			}
		}
		norm := 0.0
		for _, v := range p {
			norm += v * v
		}
		if norm > 1e-18 {
			norm = math.Sqrt(norm)
			for j := range p {
				p[j] /= norm
			}
			basis = append(basis, p)
		}
	}
	s.basis = basis
	return nil
}

// interiorPoint returns the maximum-entropy class distribution: the point
// in Ω_E maximizing Σ p_v (log|C_v| − log p_v), i.e. the restriction of the
// full-space max-ent distribution to classes. It is strictly positive on
// every non-empty class, hence interior.
func (s *DeviationSampler) interiorPoint() []float64 {
	k := len(s.classes)
	m := len(s.enc.Patterns)
	// base log-weights, shifted for stability
	base := make([]float64, k)
	maxLC := math.Inf(-1)
	for i, c := range s.classes {
		if c.logCard > maxLC {
			maxLC = c.logCard
		}
		base[i] = c.logCard
	}
	for i := range base {
		base[i] -= maxLC
	}
	lambda := make([]float64, m)
	p := make([]float64, k)
	recompute := func() {
		maxW := math.Inf(-1)
		for i, c := range s.classes {
			w := base[i]
			for j := 0; j < m; j++ {
				if c.sig&(1<<uint(j)) != 0 {
					w += lambda[j]
				}
			}
			p[i] = w
			if w > maxW {
				maxW = w
			}
		}
		sum := 0.0
		for i := range p {
			p[i] = math.Exp(p[i] - maxW)
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
	}
	recompute()
	for iter := 0; iter < 300; iter++ {
		worst := 0.0
		for j := 0; j < m; j++ {
			mj := 0.0
			for i, c := range s.classes {
				if c.sig&(1<<uint(j)) != 0 {
					mj += p[i]
				}
			}
			t := s.enc.Marginals[j]
			if t < 1e-9 {
				t = 1e-9
			}
			if t > 1-1e-9 {
				t = 1 - 1e-9
			}
			if e := math.Abs(mj - t); e > worst {
				worst = e
			}
			mj = math.Min(math.Max(mj, 1e-12), 1-1e-12)
			lambda[j] += math.Log(t*(1-mj)) - math.Log(mj*(1-t))
			recompute()
		}
		if worst < 1e-10 {
			break
		}
	}
	return p
}

// SampleDistribution draws one random class-probability vector from Ω_E:
// a hit-and-run step sequence through the constrained polytope starting
// from the current walker position (Appendix C's sampling role).
func (s *DeviationSampler) SampleDistribution(rng *rand.Rand) []float64 {
	if len(s.basis) == 0 {
		// fully determined: Ω_E is a single point
		return append([]float64(nil), s.start...)
	}
	x := s.current
	steps := 2*len(s.basis) + 4
	for t := 0; t < steps; t++ {
		// random direction in the null space
		d := make([]float64, len(x))
		for _, bv := range s.basis {
			g := rng.NormFloat64()
			for j := range d {
				d[j] += g * bv[j]
			}
		}
		// chord limits keeping x + t·d ≥ 0
		tMin, tMax := math.Inf(-1), math.Inf(1)
		for j := range x {
			if d[j] > 1e-15 {
				if lim := -x[j] / d[j]; lim > tMin {
					tMin = lim
				}
			} else if d[j] < -1e-15 {
				if lim := -x[j] / d[j]; lim < tMax {
					tMax = lim
				}
			}
		}
		if !(tMax > tMin) || math.IsInf(tMin, -1) || math.IsInf(tMax, 1) {
			continue
		}
		step := tMin + rng.Float64()*(tMax-tMin)
		for j := range x {
			x[j] += step * d[j]
			if x[j] < 0 {
				x[j] = 0
			}
		}
	}
	s.current = x
	out := append([]float64(nil), x...)
	return out
}

// KL computes KL(ρ*‖ρ) in nats for a sampled class distribution, spreading
// each class's probability uniformly over its members. Zero-probability
// classes holding ρ* support are floored to keep the divergence finite (the
// absolute-continuity caveat of Section 3.3); hit-and-run makes this a
// measure-zero event.
func (s *DeviationSampler) KL(classProbs []float64) float64 {
	const floor = 1e-12
	kl := 0.0
	n := float64(s.log.Total())
	for i := 0; i < s.log.Distinct(); i++ {
		pStar := float64(s.log.Multiplicity(i)) / n
		c := s.classes[s.queryCls[i]]
		cp := classProbs[s.queryCls[i]]
		if cp < floor {
			cp = floor
		}
		logRho := math.Log(cp) - c.logCard
		kl += pStar * (math.Log(pStar) - logRho)
	}
	return kl
}

// Deviation estimates d(E) = E[KL(ρ*‖P_E)] with the given number of samples.
func (s *DeviationSampler) Deviation(samples int, rng *rand.Rand) float64 {
	if samples <= 0 {
		samples = 1000
	}
	// burn-in proportional to the polytope dimension
	for t := 0; t < 5*len(s.basis)+10; t++ {
		s.SampleDistribution(rng)
	}
	total := 0.0
	for t := 0; t < samples; t++ {
		total += s.KL(s.SampleDistribution(rng))
	}
	return total / float64(samples)
}

// AmbiguityCodim returns the number of independent marginal constraints the
// encoding imposes beyond normalization — the codimension of Ω_E inside the
// full probability simplex over {0,1}^n. Under the uniform prior of
// Section 3.2, I(E) = log|Ω_E|, and E1 ≤Ω E2 (more constraints) lowers the
// polytope's dimension: codim is the tractable witness of Lemma 2's
// ordering — higher codim ⇒ lower Ambiguity.
func (s *DeviationSampler) AmbiguityCodim() int {
	k := len(s.classes)
	m := len(s.enc.Patterns)
	rows := make([][]float64, 0, m+1)
	one := make([]float64, k)
	for i := range one {
		one[i] = 1
	}
	rows = append(rows, one)
	for j := 0; j < m; j++ {
		r := make([]float64, k)
		for i, c := range s.classes {
			if c.sig&(1<<uint(j)) != 0 {
				r[i] = 1
			}
		}
		rows = append(rows, r)
	}
	rank := matrixRank(rows)
	if rank <= 1 {
		return 0
	}
	return rank - 1
}

func matrixRank(rows [][]float64) int {
	if len(rows) == 0 {
		return 0
	}
	cols := len(rows[0])
	rank := 0
	r := 0
	for c := 0; c < cols && r < len(rows); c++ {
		piv := -1
		for i := r; i < len(rows); i++ {
			if math.Abs(rows[i][c]) > 1e-9 {
				piv = i
				break
			}
		}
		if piv < 0 {
			continue
		}
		rows[r], rows[piv] = rows[piv], rows[r]
		pv := rows[r][c]
		for i := 0; i < len(rows); i++ {
			if i == r || rows[i][c] == 0 {
				continue
			}
			f := rows[i][c] / pv
			for j := c; j < cols; j++ {
				rows[i][j] -= f * rows[r][j]
			}
		}
		r++
		rank++
	}
	return rank
}
