package core_test

import (
	"testing"

	"logr/internal/core"
	"logr/internal/workload"
)

// TestMergeTreeCutBeatsKMeans pins the ordering behind the auto sweep's
// design on both paper workloads: cutting the merge tree over k-means
// leaves at MaxK = 240 meets k-means's own Error at K with at most K
// components, for K ∈ {30, 60, 120}.
func TestMergeTreeCutBeatsKMeans(t *testing.T) {
	for _, w := range []struct {
		name string
		log  *core.Log
	}{
		{"usbank", workload.Encode(workload.USBank(workload.USBankConfig{TotalQueries: 30000, Seed: 1}), workload.EncodeOptions{}).Log},
		{"pocketdata", workload.Encode(workload.PocketData(workload.PocketDataConfig{TotalQueries: 30000, Seed: 1}), workload.EncodeOptions{}).Log},
	} {
		name, l := w.name, w.log
		for _, k := range []int{30, 60, 120} {
			km, err := core.Compress(l, core.CompressOptions{K: k, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			tree, err := core.Compress(l, core.CompressOptions{TargetError: km.Err, MaxK: 240, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s K %d: k-means Err %.3f; tree cut K %d at Err %.3f", name, k, km.Err, tree.Mixture.K(), tree.Err)
			if tree.Mixture.K() > k {
				t.Errorf("%s: k-means Err %v at K %d; the tree needs K %d to meet it", name, km.Err, k, tree.Mixture.K())
			}
		}
	}
}
