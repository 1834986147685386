package core

import (
	"math"
	"reflect"
	"testing"

	"logr/internal/bitvec"
)

// remapLog relabels every feature of l through remap into a universe of
// size n — the ground-truth transformation RemapMixture must commute with.
func remapLog(l *Log, remap []int, n int) *Log {
	out := NewLog(n)
	for i := 0; i < l.Distinct(); i++ {
		v := l.Vector(i)
		nv := bitvec.New(n)
		for f := 0; f < l.Universe(); f++ {
			if v.Get(f) {
				nv.Set(remap[f])
			}
		}
		out.Add(nv, l.Multiplicity(i))
	}
	return out
}

// TestRemapMixtureCommutesWithRelabeling: remapping a compressed mixture
// then evaluating it on the relabeled log gives the same estimates and
// error as the original on the original — feature renaming is free.
func TestRemapMixtureCommutesWithRelabeling(t *testing.T) {
	l := segLog(48, 40, 7)
	c := compressSeg(t, l, 3)
	// a scatter: shift everything up and spread over a larger universe
	n := 80
	remap := make([]int, 48)
	for f := range remap {
		remap[f] = (f*3 + 5) % n
	}
	// injectivity of this remap: gcd(3, 80) = 1, so f*3+5 mod 80 is a bijection
	rm, err := RemapMixture(c.Mixture, remap, n)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Universe != n || rm.Total != c.Mixture.Total || rm.K() != c.Mixture.K() {
		t.Fatalf("remapped shape universe=%d total=%d k=%d", rm.Universe, rm.Total, rm.K())
	}
	// estimates commute: P(original pattern) == P(remapped pattern)
	probe := bitvec.New(48)
	probe.Set(3)
	probe.Set(11)
	rprobe := bitvec.New(n)
	rprobe.Set(remap[3])
	rprobe.Set(remap[11])
	if a, b := c.Mixture.EstimateMarginal(probe), rm.EstimateMarginal(rprobe); !almostEq(a, b, 1e-12) {
		t.Fatalf("estimate changed under remap: %v vs %v", a, b)
	}
	// error commutes: evaluating the remapped mixture on the relabeled
	// log reproduces the original error exactly
	rl := remapLog(l, remap, n)
	orig, err := c.Mixture.Error(partitionByAssignment(l, c))
	if err != nil {
		t.Fatal(err)
	}
	rparts := make([]*Log, len(c.Mixture.Components))
	for i, p := range partitionByAssignment(l, c) {
		rparts[i] = remapLog(p, remap, n)
	}
	got, err := rm.Error(rparts)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(orig, got, 1e-9) {
		t.Fatalf("error changed under remap: %v vs %v", orig, got)
	}
	_ = rl
}

// partitionByAssignment rebuilds the per-component sub-logs from a
// compression's assignment, in component order.
func partitionByAssignment(l *Log, c *Compressed) []*Log {
	parts := make([]*Log, len(c.Mixture.Components))
	for i := range parts {
		parts[i] = NewLog(l.Universe())
	}
	for i := 0; i < l.Distinct(); i++ {
		parts[c.Assignment.Labels[i]].Add(l.Vector(i), l.Multiplicity(i))
	}
	return parts
}

func TestRemapMixtureRejectsBadRemaps(t *testing.T) {
	c := compressSeg(t, segLog(16, 10, 1), 2)
	if _, err := RemapMixture(c.Mixture, make([]int, 8), 32); err == nil {
		t.Fatal("short remap accepted")
	}
	big := make([]int, 16)
	for i := range big {
		big[i] = 40
	}
	if _, err := RemapMixture(c.Mixture, big, 32); err == nil {
		t.Fatal("out-of-range remap accepted")
	}
	// collapsing two used features onto one index must be rejected
	ident := make([]int, 16)
	for i := range ident {
		ident[i] = i
	}
	used := map[int]bool{}
	for _, comp := range c.Mixture.Components {
		for _, f := range comp.Feat {
			used[int(f)] = true
		}
	}
	var twoUsed []int
	for f := range ident {
		if used[f] {
			twoUsed = append(twoUsed, f)
		}
		if len(twoUsed) == 2 {
			break
		}
	}
	if len(twoUsed) == 2 {
		ident[twoUsed[1]] = ident[twoUsed[0]]
		if _, err := RemapMixture(c.Mixture, ident, 32); err == nil {
			t.Fatal("non-injective remap over used features accepted")
		}
	}
}

// TestCoalesceMixtureBudgetAndBound: coalescing respects the component
// budget, conserves total weight and query mass, and reports a
// non-negative error-increase bound that grows monotonically with
// tighter budgets. Each output component is exactly the naive encoding of
// the union of its leaves' sub-logs: the same counts, and marginals with
// the same bits as the pooled log's FeatureMarginals.
func TestCoalesceMixtureBudgetAndBound(t *testing.T) {
	c := compressSeg(t, segLog(64, 60, 11), 6)
	m := c.Mixture
	leaves := make([]*coalescePart, m.K())
	for i, comp := range m.Components {
		leaves[i] = newCoalescePart(comp)
	}
	tree := agglomerateParts(leaves, 0, coalesceScore, poolCoalesceParts)
	var live []*Log // the leaves' parts: c's non-empty ones, in order
	for _, p := range c.Parts {
		if p.Total() > 0 {
			live = append(live, p)
		}
	}
	prevBound := 0.0
	for _, k := range []int{5, 3, 1} {
		cm, bound := CoalesceMixture(m, k)
		if cm.K() > k {
			t.Fatalf("budget %d produced %d components", k, cm.K())
		}
		pooled := make([]*Log, k)
		for leaf, lbl := range tree.Cut(k).Labels {
			if pooled[lbl] == nil {
				pooled[lbl] = NewLog(m.Universe)
			}
			pooled[lbl].Merge(live[leaf])
		}
		for i, l := range pooled {
			if want := NaiveEncode(l); !reflect.DeepEqual(cm.Components[i], want) {
				t.Fatalf("budget %d: component %d has counts %+v, its leaves' union %+v", k, i, cm.Components[i], want)
			}
			got, want := cm.Components[i].Dense(m.Universe), l.FeatureMarginals()
			for f := range want {
				if math.Float64bits(got[f]) != math.Float64bits(want[f]) {
					t.Fatalf("budget %d: component %d feature %d marginal %v, its leaves' union %v", k, i, f, got[f], want[f])
				}
			}
		}
		if cm.Total != m.Total || cm.Universe != m.Universe {
			t.Fatalf("coalesce changed shape: %+v", cm)
		}
		var w float64
		for i := range cm.Components {
			w += cm.Weight(i)
		}
		if !almostEq(w, 1.0, 1e-9) {
			t.Fatalf("weights sum to %v after coalesce to %d", w, k)
		}
		if bound < 0 {
			t.Fatalf("negative error bound %v", bound)
		}
		if bound+1e-12 < prevBound {
			t.Fatalf("tighter budget %d reported smaller bound %v < %v", k, bound, prevBound)
		}
		prevBound = bound
		// estimates stay probabilities
		probe := bitvec.New(64)
		probe.Set(5)
		if p := cm.EstimateMarginal(probe); p < 0 || p > 1+1e-9 || math.IsNaN(p) {
			t.Fatalf("estimate %v after coalesce", p)
		}
	}
	// a no-op budget returns the mixture unchanged with zero bound
	same, bound := CoalesceMixture(m, m.K())
	if bound != 0 || same.K() != m.K() {
		t.Fatalf("no-op coalesce: k=%d bound=%v", same.K(), bound)
	}
}
