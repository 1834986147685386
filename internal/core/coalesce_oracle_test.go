package core

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"logr/internal/cluster"
	"logr/internal/parallel"
)

// consolidateOracleOptions are the options of consolidateOracle.
type consolidateOracleOptions struct {
	TargetK     int
	TargetError float64
	Parallelism int
}

// consolidateOracle is the greedy loop the merge tree's cuts replaced,
// kept as the oracle: it rescans every live pair at every merge,
// shift-deletes the merged row and, in error-target mode, re-evaluates the
// exact error after each merge and rolls back the first one that overshoots.
func consolidateOracle(c *Compressed, opts consolidateOracleOptions, total int) *Compressed {
	live := liveConsParts(c.Parts)
	if len(live) <= 1 {
		return c
	}
	t := float64(total)
	exactErr := func() float64 {
		e := 0.0
		for _, p := range live {
			e += float64(p.enc.Count) / t * (p.modelH - p.empH)
		}
		return e
	}

	scores := make([][]float64, len(live))
	for i := range scores {
		scores[i] = make([]float64, len(live))
	}
	parallel.For(len(live), opts.Parallelism, func(i int) {
		for j := i + 1; j < len(live); j++ {
			scores[i][j] = compactionScore(live[i], live[j])
		}
	})
	for i := range scores {
		for j := 0; j < i; j++ {
			scores[i][j] = scores[j][i]
		}
	}
	dropRow := func(bj int) {
		for i := range scores {
			scores[i] = append(scores[i][:bj], scores[i][bj+1:]...)
		}
		scores = append(scores[:bj], scores[bj+1:]...)
	}

	want := opts.TargetK
	for len(live) > 1 {
		if want > 0 && len(live) <= want {
			break
		}
		// lowest-score pair, earliest on ties
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(live); i++ {
			row := scores[i]
			for j := i + 1; j < len(live); j++ {
				if row[j] < best {
					bi, bj, best = i, j, row[j]
				}
			}
		}
		merged := mergeConsParts(live[bi], live[bj])
		if want == 0 {
			// error-target mode: commit only while the exact error holds
			old := live[bi]
			live[bi] = merged
			tail := live[bj]
			live = append(live[:bj], live[bj+1:]...)
			if exactErr() > opts.TargetError {
				live = append(live[:bj], append([]*consPart{tail}, live[bj:]...)...)
				live[bi] = old
				break
			}
		} else {
			live[bi] = merged
			live = append(live[:bj], live[bj+1:]...)
		}
		dropRow(bj)
		for i := range live {
			if i == bi {
				continue
			}
			s := compactionScore(live[bi], live[i])
			scores[bi][i], scores[i][bi] = s, s
		}
	}

	parts := make([]*Log, len(live))
	for i, p := range live {
		parts[i] = p.log
	}
	mix := BuildMixtureP(parts, opts.Parallelism)
	mix.Total = total
	e, err := mix.ErrorP(parts, opts.Parallelism)
	if err != nil {
		e = math.NaN()
	}
	return &Compressed{Mixture: mix, Assignment: cluster.Assignment{K: len(parts)}, Parts: parts, Err: e}
}

// coalesceMixtureOracle is the greedy loop CoalesceMixture's merge-tree cut
// replaced, kept as the oracle: every live pair is rescored at every merge.
func coalesceMixtureOracle(m Mixture, targetK int) (Mixture, float64) {
	if targetK <= 0 || m.K() <= targetK {
		return m, 0
	}
	live := make([]*coalescePart, m.K())
	for i, c := range m.Components {
		live[i] = newCoalescePart(c)
	}
	bound := 0.0
	for len(live) > targetK {
		bi, bj, best := -1, -1, math.Inf(1)
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				if s := coalesceScore(live[i], live[j]); s < best {
					bi, bj, best = i, j, s
				}
			}
		}
		if best > 0 {
			bound += best
		}
		live[bi] = poolCoalesceParts(live[bi], live[bj])
		live = append(live[:bj], live[bj+1:]...)
	}
	out := Mixture{Universe: m.Universe, Total: m.Total, Components: make([]Naive, len(live))}
	for i, p := range live {
		out.Components[i] = p.enc
	}
	return out, bound / float64(m.Total)
}

// partSignatures renders each part as its sorted (vector, multiplicity)
// pairs, independent of the order the part's distinct vectors were added
// in, and returns the parts' renderings sorted: the partition as a
// multiset of multisets.
func partSignatures(parts []*Log) []string {
	var sigs []string
	for _, l := range parts {
		if l.Total() == 0 {
			continue
		}
		entries := make([]string, l.Distinct())
		for i := range entries {
			entries[i] = fmt.Sprintf("%v×%d", l.Vector(i), l.Multiplicity(i))
		}
		slices.Sort(entries)
		sigs = append(sigs, strings.Join(entries, ";"))
	}
	slices.Sort(sigs)
	return sigs
}

func componentCounts(m Mixture) []int {
	counts := make([]int, m.K())
	for i, c := range m.Components {
		counts[i] = c.Count
	}
	slices.Sort(counts)
	return counts
}

// TestCoalescersMatchGreedyOracles compares the merge tree's cuts and
// CoalesceMixture with the greedy loops they replaced over a grid of
// clusterings: 8, 12 and 20 k-means leaves, cut to K ∈ {1, 2, 3, 5},
// 40 seeds.
//   - At a component budget the tree's K-part cut is the oracle's partition
//     (the same multiset of parts, each the same vectors with the same
//     multiplicities) at the same Err.
//   - CoalesceMixture returns the oracle's component counts and bound.
//   - At an error target the auto sweep meets it with no more components
//     than the oracle, which stops at the first merge that overshoots.
func TestCoalescersMatchGreedyOracles(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		for _, nleaf := range []int{8, 12, 20} {
			l := segLog(64, 120, seed*7+int64(nleaf))
			leaves := compressSeg(t, l, nleaf)
			if leaves.Mixture.K() != nleaf {
				t.Fatalf("seed %d: %d leaves, want %d", seed, leaves.Mixture.K(), nleaf)
			}
			tree, _ := mergeTree(leaves, 1)
			for _, k := range []int{1, 2, 3, 5} {
				ctx := fmt.Sprintf("seed %d, %d leaves, K %d", seed, nleaf, k)
				want := consolidateOracle(leaves, consolidateOracleOptions{TargetK: k}, leaves.Mixture.Total)
				got, err := fromAssignment(l, composeCut(leaves, tree.Cut(k)), 1)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(partSignatures(got.Parts), partSignatures(want.Parts)) {
					t.Fatalf("%s: the tree's cut differs from the oracle's partition", ctx)
				}
				if math.Abs(got.Err-want.Err) > 1e-9 {
					t.Fatalf("%s: cut Err %v, oracle %v", ctx, got.Err, want.Err)
				}

				wantMix, wantBound := coalesceMixtureOracle(leaves.Mixture, k)
				gotMix, gotBound := CoalesceMixture(leaves.Mixture, k)
				if !slices.Equal(componentCounts(gotMix), componentCounts(wantMix)) {
					t.Fatalf("%s: CoalesceMixture counts %v, oracle %v", ctx, componentCounts(gotMix), componentCounts(wantMix))
				}
				if math.Abs(gotBound-wantBound) > 1e-9 {
					t.Fatalf("%s: CoalesceMixture bound %v, oracle %v", ctx, gotBound, wantBound)
				}

				// a target just above the K-part cut's Err, so float noise in
				// either error bookkeeping cannot decide whether that cut holds
				target := want.Err + 1e-12
				wantT := consolidateOracle(leaves, consolidateOracleOptions{TargetError: target}, leaves.Mixture.Total)
				gotT, err := Compress(l, CompressOptions{TargetError: target, MaxK: nleaf, Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				if gotT.Err > target+1e-9 {
					t.Fatalf("%s: error target %v overshot: Err %v", ctx, target, gotT.Err)
				}
				if gotT.Mixture.K() > wantT.Mixture.K() || gotT.Mixture.K() > k {
					t.Fatalf("%s: error target %v gave K %d, oracle %d, K-part cut %d", ctx, target, gotT.Mixture.K(), wantT.Mixture.K(), k)
				}
			}
		}
	}
}
