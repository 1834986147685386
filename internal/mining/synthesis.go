package mining

import (
	"math"
	"math/rand"

	"logr/internal/bitvec"
	"logr/internal/core"
)

// Section 6.3's fidelity measures of a naive mixture encoding (Figure 3):
// how often patterns synthesized from a component occur in its partition,
// and how far the mixture's marginal estimates stray from the true
// marginals of the partition's own queries.

// SynthesizePattern draws a random pattern from component i of m's
// maximum-entropy distribution: each feature is included independently with
// its marginal probability (Section 6.3's synthesis procedure).
func SynthesizePattern(m core.Mixture, i int, rng *rand.Rand) bitvec.Vector {
	e := m.Components[i]
	v := bitvec.New(m.Universe)
	for j, f := range e.Feat {
		if rng.Float64() < float64(e.Cnt[j])/float64(e.Count) {
			v.Set(int(f))
		}
	}
	return v
}

// SynthesisError measures 1 − M/N per component and returns the weighted
// average (Section 6.3): N patterns are synthesized from each component and
// M is the number with positive marginal in the corresponding partition.
// Containment counting uses all cores; use SynthesisErrorP to bound it.
func SynthesisError(m core.Mixture, parts []*core.Log, n int, rng *rand.Rand) float64 {
	return SynthesisErrorP(m, parts, n, rng, 0)
}

// SynthesisErrorP is SynthesisError with an explicit worker bound (p ≤ 0 =
// all cores).
func SynthesisErrorP(m core.Mixture, parts []*core.Log, n int, rng *rand.Rand, par int) float64 {
	live := liveParts(parts)
	if len(live) != len(m.Components) || n <= 0 {
		return 0
	}
	total := 0.0
	for i := range m.Components {
		// Draw the n patterns serially (the RNG stream fixes them), then
		// count containment for the whole batch in one pass over the
		// partition.
		bs := make([]bitvec.Vector, n)
		for t := 0; t < n; t++ {
			bs[t] = SynthesizePattern(m, i, rng)
		}
		counts := live[i].CountBatch(bs, par)
		hits := 0
		for _, c := range counts {
			if c > 0 {
				hits++
			}
		}
		total += m.Weight(i) * (1 - float64(hits)/float64(n))
	}
	return total
}

// MarginalDeviation measures |ESTM − TM| / TM averaged over the distinct
// queries of each partition (each treated as a probe pattern — the paper's
// worst-case argument in Section 6.3), weighted by partition size.
// Containment counting uses all cores; use MarginalDeviationP to bound it.
func MarginalDeviation(m core.Mixture, parts []*core.Log) float64 {
	return MarginalDeviationP(m, parts, 0)
}

// MarginalDeviationP is MarginalDeviation with an explicit worker bound
// (p ≤ 0 = all cores).
func MarginalDeviationP(m core.Mixture, parts []*core.Log, par int) float64 {
	live := liveParts(parts)
	if len(live) != len(m.Components) {
		return 0
	}
	total := 0.0
	for i, c := range m.Components {
		part := live[i]
		if part.Distinct() == 0 {
			continue
		}
		// Every distinct query doubles as a probe pattern; one batched
		// containment pass replaces Distinct() separate O(Distinct()) scans.
		probes := make([]bitvec.Vector, part.Distinct())
		for d := range probes {
			probes[d] = part.Vector(d)
		}
		counts := part.CountBatch(probes, par)
		partTotal := float64(part.Total())
		sum := 0.0
		for d := 0; d < part.Distinct(); d++ {
			tm := float64(counts[d]) / partTotal
			est := c.EstimateMarginal(probes[d])
			if tm > 0 {
				sum += math.Abs(est-tm) / tm
			}
		}
		total += m.Weight(i) * sum / float64(part.Distinct())
	}
	return total
}

// liveParts drops the empty partitions, which have no mixture component.
func liveParts(parts []*core.Log) []*core.Log {
	var live []*core.Log
	for _, p := range parts {
		if p.Total() > 0 {
			live = append(live, p)
		}
	}
	return live
}
