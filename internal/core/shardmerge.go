package core

// Cross-shard merging: the segment algebra (segmerge.go) assumes every
// input shares one codebook, so feature index f means the same thing in
// every mixture and Grow alone aligns universes. Shard summaries break
// that assumption — each logrd shard registers features in its own
// arrival order, so index f on shard A and index f on shard B usually
// name different features. RemapMixture is the missing alignment step:
// it rewrites a mixture's feature indexing through a caller-built
// remap (old index → union-codebook index), after which the ordinary
// Grow/Merge algebra applies unchanged. The remap permutes marginals
// without changing any of them, so every entropy term — model and
// empirical — is untouched: a remapped-then-merged mixture's
// Reproduction Error is still exactly the total-weighted combination of
// the inputs' errors, same as MergeRange's shared-codebook guarantee.
//
// CoalesceMixture is Consolidate's parts-free sibling for the gateway:
// summaries restored from the wire carry no partition sub-logs, so the
// exact per-merge error Consolidate's merge tree records is unavailable.
// The coalescer runs the same agglomeration engine over the components,
// pooling them in marginal space and scoring pairs by the model-entropy
// increase of pooling alone, which upper-bounds the true error increase
// (pooling two sub-logs can only increase their empirical entropy, and
// that term enters the error negatively). Its result is one cut of that
// tree.

import (
	"fmt"
	"math"

	"logr/internal/maxent"
)

// RemapMixture rewrites m's feature indexing: old feature i becomes
// remap[i] in a universe of size n. remap must cover m.Universe, be
// injective on the features m actually uses, and stay below n — the
// caller builds it by registering the mixture's codebook into a union
// codebook. Marginals are moved, never altered, so estimates, entropies
// and the Reproduction Error are invariant up to the renaming.
func RemapMixture(m Mixture, remap []int, n int) (Mixture, error) {
	if len(remap) < m.Universe {
		return Mixture{}, fmt.Errorf("core: remap covers %d features, mixture universe is %d", len(remap), m.Universe)
	}
	for i := 0; i < m.Universe; i++ {
		if remap[i] < 0 || remap[i] >= n {
			return Mixture{}, fmt.Errorf("core: remap[%d] = %d outside target universe %d", i, remap[i], n)
		}
	}
	out := Mixture{Universe: n, Total: m.Total, Components: make([]Component, len(m.Components))}
	for ci, c := range m.Components {
		marg := make([]float64, n)
		for i, p := range c.Encoding.Marginals {
			if p == 0 {
				continue
			}
			if marg[remap[i]] != 0 {
				return Mixture{}, fmt.Errorf("core: remap maps two used features onto %d", remap[i])
			}
			marg[remap[i]] = p
		}
		out.Components[ci] = Component{
			Encoding: Naive{Marginals: marg, Count: c.Encoding.Count},
			Weight:   c.Weight,
		}
	}
	return out, nil
}

// coalescePart is one live component during parts-free coalescing: its
// pooled feature-count vector (count·marginal, which adds under
// pooling), its query count, and the model entropy of its marginals.
type coalescePart struct {
	counts []float64 // counts[f] = count · p(X_f = 1)
	count  float64
	weight float64
	modelH float64
}

func newCoalescePart(c Component) *coalescePart {
	n := float64(c.Encoding.Count)
	counts := make([]float64, len(c.Encoding.Marginals))
	h := 0.0
	for f, p := range c.Encoding.Marginals {
		if p <= 0 {
			continue
		}
		counts[f] = p * n
		h += maxent.BernoulliEntropy(p)
	}
	return &coalescePart{counts: counts, count: n, weight: c.Weight, modelH: h}
}

// pooledEntropy returns H(ρ_E) of the pooled marginals of a and b
// without materializing them.
func pooledEntropy(a, b *coalescePart) float64 {
	n := a.count + b.count
	if n == 0 {
		return 0
	}
	h := 0.0
	for f, ca := range a.counts {
		c := ca + b.counts[f]
		if c > 0 {
			h += maxent.BernoulliEntropy(c / n)
		}
	}
	return h
}

// coalesceScore estimates the per-query error increase of pooling a and
// b, scaled by their combined weight: w·H(pooled) − wa·H(a) − wb·H(b).
// The empirical-entropy side of the true error can only grow under
// pooling, so the score is an upper bound on the real ΔErr.
func coalesceScore(a, b *coalescePart) float64 {
	w := a.weight + b.weight
	return w*pooledEntropy(a, b) - a.weight*a.modelH - b.weight*b.modelH
}

// poolCoalesceParts returns the component pooling a and b.
func poolCoalesceParts(a, b *coalescePart) *coalescePart {
	p := &coalescePart{
		counts: make([]float64, len(a.counts)),
		count:  a.count + b.count,
		weight: a.weight + b.weight,
	}
	for f := range p.counts {
		c := a.counts[f] + b.counts[f]
		p.counts[f] = c
		if c > 0 {
			p.modelH += maxent.BernoulliEntropy(c / p.count)
		}
	}
	return p
}

// CoalesceMixture cuts the merge tree over m's components (scored by
// coalesceScore) into at most targetK components, returning the reduced
// mixture and the sum of the positive merge scores below the cut — an
// upper bound, in nats per query, on how far the result's Reproduction
// Error can sit above the input's. The input is never mutated.
// Deterministic: ties keep the earliest pair in component order.
func CoalesceMixture(m Mixture, targetK int) (Mixture, float64) {
	if targetK <= 0 || m.K() <= targetK {
		return m, 0
	}
	leaves := make([]*coalescePart, m.K())
	for i, c := range m.Components {
		leaves[i] = newCoalescePart(c)
	}
	tree := agglomerateParts(leaves, 0, coalesceScore, poolCoalesceParts)
	bound := 0.0
	for _, s := range tree.MergeDistances()[:m.K()-targetK] {
		if s > 0 {
			bound += s
		}
	}
	groups := make([]*coalescePart, targetK)
	for i, lbl := range tree.Cut(targetK).Labels {
		if groups[lbl] == nil {
			groups[lbl] = leaves[i]
		} else {
			groups[lbl] = poolCoalesceParts(groups[lbl], leaves[i])
		}
	}
	out := Mixture{Universe: m.Universe, Total: m.Total, Components: make([]Component, targetK)}
	for i, p := range groups {
		marg := make([]float64, len(p.counts))
		if p.count > 0 {
			for f, c := range p.counts {
				marg[f] = c / p.count
			}
		}
		out.Components[i] = Component{
			Encoding: Naive{Marginals: marg, Count: int(math.Round(p.count))},
			Weight:   p.weight,
		}
	}
	return out, bound
}
