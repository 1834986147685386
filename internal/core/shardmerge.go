package core

// Cross-shard merging: Mixture.Merge assumes every input shares one
// codebook, so feature index f means the same thing in every mixture and
// Merge alone aligns universes. Shard summaries break
// that assumption — each logrd shard registers features in its own
// arrival order, so index f on shard A and index f on shard B usually
// name different features. RemapMixture is the missing alignment step:
// it rewrites a mixture's feature indexing through a caller-built
// remap (old index → union-codebook index), after which the ordinary
// Merge algebra applies unchanged. The remap permutes feature counts
// without changing any of them, so every entropy term — model and
// empirical — is untouched: a remapped-then-merged mixture's
// Reproduction Error is still exactly the total-weighted combination of
// the inputs' errors.
//
// CoalesceMixture is the parts-free sibling of the auto sweep's merge tree
// (mergeTree) for the gateway:
// summaries restored from the wire carry no partition sub-logs, so the
// exact per-merge error mergeTree records is unavailable.
// The coalescer runs the same agglomeration engine over the components,
// pooling their feature counts and scoring pairs by the model-entropy
// increase of pooling alone, which upper-bounds the true error increase
// (pooling two sub-logs can only increase their empirical entropy, and
// that term enters the error negatively). Its result is one cut of that
// tree.

import (
	"fmt"
	"slices"
)

// RemapMixture rewrites m's feature indexing: old feature i becomes
// remap[i] in a universe of size n. remap must cover m.Universe, be
// injective on the features m actually uses, and stay below n — the
// caller builds it by registering the mixture's codebook into a union
// codebook. Counts are moved, never altered, so estimates, entropies
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
	out := Mixture{Universe: n, Total: m.Total, Components: make([]Naive, len(m.Components))}
	for ci, c := range m.Components {
		// the support in ascending order of the new indices
		ord := make([]int, len(c.Feat))
		for j := range ord {
			ord[j] = j
		}
		slices.SortFunc(ord, func(a, b int) int { return remap[c.Feat[a]] - remap[c.Feat[b]] })
		e := Naive{Count: c.Count, Feat: make([]uint32, len(ord)), Cnt: make([]int, len(ord))}
		for j, k := range ord {
			e.Feat[j], e.Cnt[j] = uint32(remap[c.Feat[k]]), c.Cnt[k]
			if j > 0 && e.Feat[j] == e.Feat[j-1] {
				return Mixture{}, fmt.Errorf("core: remap maps two used features onto %d", e.Feat[j])
			}
		}
		out.Components[ci] = e
	}
	return out, nil
}

// coalescePart is one live component during parts-free coalescing: its
// naive encoding and that encoding's model entropy.
type coalescePart struct {
	enc    Naive
	modelH float64
}

func newCoalescePart(e Naive) *coalescePart {
	return &coalescePart{enc: e, modelH: e.ModelEntropy()}
}

// coalesceScore is T·ΔH(ρ_E) of pooling a and b. The empirical-entropy
// side of the true error can only grow under pooling, so the score is an
// upper bound on T·ΔErr.
func coalesceScore(a, b *coalescePart) float64 {
	return poolScore(a.enc, b.enc, a.modelH, b.modelH)
}

// poolCoalesceParts returns the component pooling a and b.
func poolCoalesceParts(a, b *coalescePart) *coalescePart {
	return newCoalescePart(poolNaive(a.enc, b.enc))
}

// CoalesceMixture cuts the merge tree over m's components (scored by
// coalesceScore) into at most targetK components, returning the reduced
// mixture and the sum of the positive merge scores below the cut over
// m.Total — an upper bound, in nats per query, on how far the result's
// Reproduction Error can sit above the input's. Each output component is
// the exact naive encoding of its leaves' pooled sub-logs. The input is
// never mutated. Deterministic: ties keep the earliest pair in component
// order.
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
	out := Mixture{Universe: m.Universe, Total: m.Total, Components: make([]Naive, targetK)}
	for i, lbl := range tree.Cut(targetK).Labels {
		if out.Components[lbl].Count == 0 {
			out.Components[lbl] = m.Components[i]
		} else {
			out.Components[lbl] = poolNaive(out.Components[lbl], m.Components[i])
		}
	}
	return out, bound / float64(m.Total)
}
