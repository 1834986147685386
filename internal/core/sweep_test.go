package core

import (
	"math"
	"testing"
)

// TestMergeTreeErrMatchesExactError pins the merge tree's recorded Err: at
// every cut it must equal Mixture.ErrorP of that cut's partition,
// recomputed from scratch.
func TestMergeTreeErrMatchesExactError(t *testing.T) {
	for _, tc := range []struct {
		method Method
		seed   int64
	}{{KMeansMethod, 1}, {KMeansMethod, 9}, {HierarchicalMethod, 1}} {
		l := oracleLog(31+tc.seed, 120, 150)
		leaves, err := Compress(l, CompressOptions{K: 16, Method: tc.method, Seed: tc.seed})
		if err != nil {
			t.Fatal(err)
		}
		tree, errs := mergeTree(leaves, 0)
		if len(errs) != leaves.Mixture.K() {
			t.Fatalf("%v: %d recorded errors for %d leaves", tc.method, len(errs), leaves.Mixture.K())
		}
		for k := 1; k <= len(errs); k++ {
			cut, err := fromAssignment(l, composeCut(leaves, tree.Cut(k)), 1)
			if err != nil {
				t.Fatal(err)
			}
			if cut.Mixture.K() != k {
				t.Fatalf("%v: cut %d has %d components", tc.method, k, cut.Mixture.K())
			}
			if got := errs[len(errs)-k]; math.Abs(got-cut.Err) > 1e-9 {
				t.Errorf("%v: cut %d: recorded Err %v, exact %v", tc.method, k, got, cut.Err)
			}
		}
	}
}

// TestAutoSweepReturnsSmallestQualifyingCut checks the stop rule: the
// sweep's result meets the target and no smaller cut of the tree does.
func TestAutoSweepReturnsSmallestQualifyingCut(t *testing.T) {
	l := oracleLog(41, 120, 150)
	leaves, err := Compress(l, CompressOptions{K: 16, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, errs := mergeTree(leaves, 0)
	for _, k := range []int{2, 5, 11} {
		target := errs[len(errs)-k]
		got, err := Compress(l, CompressOptions{TargetError: target, MaxK: 16, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got.Err > target+1e-9 || got.Mixture.K() > k {
			t.Fatalf("target %v met by cut %d: sweep returned K = %d at Err %v", target, k, got.Mixture.K(), got.Err)
		}
		for j := 1; j < got.Mixture.K(); j++ {
			if errs[len(errs)-j] <= target {
				t.Fatalf("target %v: sweep returned K = %d, but cut %d qualifies", target, got.Mixture.K(), j)
			}
		}
	}
}

// TestAutoSweepUnmetTargetReturnsMaxK: when no cut meets the target the
// sweep returns the MaxK clustering itself, identical to asking for
// K = MaxK with the same seed.
func TestAutoSweepUnmetTargetReturnsMaxK(t *testing.T) {
	l := oracleLog(43, 100, 120)
	for _, method := range []Method{KMeansMethod, HierarchicalMethod} {
		for _, compress := range []func(*Log, CompressOptions) (*Compressed, error){Compress, compressDense} {
			sweep, err := compress(l, CompressOptions{Method: method, Seed: 5, TargetError: -1, MaxK: 12})
			if err != nil {
				t.Fatal(err)
			}
			fixed, err := compress(l, CompressOptions{Method: method, Seed: 5, K: 12})
			if err != nil {
				t.Fatal(err)
			}
			assertSameCompressed(t, sweep, fixed, "unmet/"+method.String())
		}
	}
}
