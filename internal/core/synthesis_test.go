package core_test

import (
	"math/rand"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/core"
	"logr/internal/mining"
)

// These tests check naive mixtures against Section 6.3's fidelity measures
// (package mining): a partition that separates the query shapes synthesizes
// only patterns its partitions hold and estimates their marginals exactly.

// section51Log builds the toy log of Section 5.1:
//
//	q1 = 〈1,0,1,1〉, q2 = 〈1,0,1,0〉, q3 = 〈0,1,1,0〉
func section51Log() *core.Log {
	l := core.NewLog(4)
	l.Add(bitvec.FromIndices(4, 0, 2, 3), 1)
	l.Add(bitvec.FromIndices(4, 0, 2), 1)
	l.Add(bitvec.FromIndices(4, 1, 2), 1)
	return l
}

func TestSynthesisErrorZeroOnPerfectEncoding(t *testing.T) {
	l := section51Log()
	mix, parts := core.BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	rng := rand.New(rand.NewSource(7))
	got := mining.SynthesisError(mix, parts, 500, rng)
	// partition 2 is a point mass (always synthesizes q3); partition 1
	// synthesizes q1/q2 which both exist. Error should be ≈ 0.
	if got > 1e-9 {
		t.Errorf("synthesis error = %g, want 0", got)
	}
}

func TestMarginalDeviationZeroOnPerfectEncoding(t *testing.T) {
	l := section51Log()
	mix, parts := core.BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	if got := mining.MarginalDeviation(mix, parts); got > 1e-9 {
		t.Errorf("marginal deviation = %g, want 0", got)
	}
}

func TestSynthesisErrorPositiveOnCoarseEncoding(t *testing.T) {
	// One cluster over anti-correlated workloads synthesizes phantom
	// cross-workload patterns.
	l := core.NewLog(8)
	l.Add(bitvec.FromIndices(8, 0, 1, 2, 3), 50)
	l.Add(bitvec.FromIndices(8, 4, 5, 6, 7), 50)
	mix, parts := core.BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0}, K: 1})
	rng := rand.New(rand.NewSource(9))
	got := mining.SynthesisError(mix, parts, 2000, rng)
	if got < 0.5 {
		t.Errorf("synthesis error = %g, expected large for anti-correlated mix", got)
	}
	mix2, parts2 := core.BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 1}, K: 2})
	if got2 := mining.SynthesisError(mix2, parts2, 2000, rng); got2 > 1e-9 {
		t.Errorf("2-cluster synthesis error = %g, want 0", got2)
	}
}
