package core

import (
	"fmt"
	"slices"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/parallel"
)

// Mixture is a naive mixture encoding (Section 5): the log modeled as a
// weighted mixture of per-cluster naive encodings. It is the output format
// of LogR compression. Component i encodes the sub-log L_i, and its weight
// |L_i| / |L| is derived from the counts (Weight).
type Mixture struct {
	Universe   int
	Components []Naive
	// Total is |L|.
	Total int
}

// Weight returns w_i = |L_i| / |L|, component i's share of the log.
func (m Mixture) Weight(i int) float64 {
	if m.Total == 0 {
		return 0
	}
	return float64(m.Components[i].Count) / float64(m.Total)
}

// BuildMixture encodes each partition of the log with a naive encoding,
// using all cores. The partition list usually comes from Log.Partition.
func BuildMixture(parts []*Log) Mixture {
	return BuildMixtureP(parts, 0)
}

// BuildMixtureP is BuildMixture with an explicit worker bound (p ≤ 0 = all
// cores). Each partition's naive encoding is self-contained, so encoding
// partitions concurrently and assembling components in partition order is
// deterministic at any parallelism.
func BuildMixtureP(parts []*Log, par int) Mixture {
	total := 0
	for _, p := range parts {
		total += p.Total()
	}
	m := Mixture{Total: total}
	if len(parts) > 0 {
		m.Universe = parts[0].Universe()
	}
	encs := make([]Naive, len(parts))
	parallel.For(len(parts), par, func(i int) {
		if parts[i].Total() > 0 {
			encs[i] = NaiveEncode(parts[i])
		}
	})
	for i, p := range parts {
		if p.Total() > 0 {
			m.Components = append(m.Components, encs[i])
		}
	}
	return m
}

// BuildNaiveMixture clusters the log's distinct vectors and returns the
// resulting naive mixture encoding together with the partition (needed to
// evaluate Reproduction Error against ground truth).
func BuildNaiveMixture(l *Log, asg cluster.Assignment) (Mixture, []*Log) {
	return BuildNaiveMixtureP(l, asg, 0)
}

// BuildNaiveMixtureP is BuildNaiveMixture with an explicit worker bound.
func BuildNaiveMixtureP(l *Log, asg cluster.Assignment, par int) (Mixture, []*Log) {
	parts := l.Partition(asg)
	return BuildMixtureP(parts, par), parts
}

// K returns the number of (non-empty) components.
func (m Mixture) K() int { return len(m.Components) }

// Grow returns the mixture over a universe of size n ≥ the current one. The
// components are unchanged — the new features are off every support — so
// in-universe estimates are unchanged and patterns touching a new feature
// estimate to 0: the "registered after the snapshot ⇒ unseen" semantics
// universe-versioned summaries rely on.
func (m Mixture) Grow(n int) Mixture {
	if n < m.Universe {
		panic("core: Grow would shrink mixture universe")
	}
	m.Universe = n
	return m
}

// Merge combines two mixtures that summarize disjoint sub-logs — an earlier
// compression plus a newly compressed delta, or per-shard summaries of a
// distributed log — into one mixture over the union universe: the
// components of both, in order, over the summed total. The weights follow
// from the counts, so merging is exact and associative.
func (m Mixture) Merge(other Mixture) Mixture {
	return Mixture{
		Universe:   max(m.Universe, other.Universe),
		Total:      m.Total + other.Total,
		Components: slices.Concat(m.Components, other.Components),
	}
}

// TotalVerbosity returns Σ_i |S_i| (Section 5.2): the total number of
// single-feature patterns stored across all components.
func (m Mixture) TotalVerbosity() int {
	v := 0
	for _, c := range m.Components {
		v += c.Verbosity()
	}
	return v
}

// Error returns the Generalized Reproduction Error Σ_i w_i · e(S_i)
// (Section 5.2) against the true partition, using all cores.
func (m Mixture) Error(parts []*Log) (float64, error) {
	return m.ErrorP(parts, 0)
}

// ErrorP is Error with an explicit worker bound (p ≤ 0 = all cores).
// Per-component errors are computed concurrently and summed in component
// order, so the float result is identical at any parallelism.
func (m Mixture) ErrorP(parts []*Log, par int) (float64, error) {
	if len(parts) == 0 && len(m.Components) == 0 {
		return 0, nil
	}
	// Non-empty partitions must align 1:1 with components.
	var live []*Log
	for _, p := range parts {
		if p.Total() > 0 {
			live = append(live, p)
		}
	}
	if len(live) != len(m.Components) {
		return 0, fmt.Errorf("core: %d non-empty partitions vs %d components", len(live), len(m.Components))
	}
	errs := make([]float64, len(m.Components))
	parallel.For(len(m.Components), par, func(i int) {
		errs[i] = m.Components[i].ReproductionError(live[i])
	})
	e := 0.0
	for i := range m.Components {
		e += m.Weight(i) * errs[i]
	}
	return e, nil
}

// EstimateMarginal returns the mixture estimate of p(Q ⊇ b | L):
// Σ_i w_i · ρ_Si(Q ⊇ b).
func (m Mixture) EstimateMarginal(b bitvec.Vector) float64 {
	p := 0.0
	for i, c := range m.Components {
		p += m.Weight(i) * c.EstimateMarginal(b)
	}
	return p
}

// EstimateCount returns est[Γ_b(L)] = Σ_i est[Γ_b(L_i) | E_i]
// (Section 6.2).
//
//logr:noalloc
func (m Mixture) EstimateCount(b bitvec.Vector) float64 {
	s := 0.0
	for _, c := range m.Components {
		s += c.EstimateCount(b)
	}
	return s
}
