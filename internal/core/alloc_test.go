package core

import (
	"testing"

	"logr/internal/bitvec"
)

// TestEstimateAllocs pins the //logr:noalloc estimate kernels at zero
// allocations per call: a probe walks each component's sparse counts in
// place, with no dense marginal row behind it.
func TestEstimateAllocs(t *testing.T) {
	l := benchLog(863, 605)
	mix, _ := BuildNaiveMixture(l, kmeansAssign(l, 8))
	e := mix.Components[0]
	probes := []bitvec.Vector{
		bitvec.FromIndices(863, int(e.Feat[0]), int(e.Feat[len(e.Feat)-1])), // on the support
		bitvec.FromIndices(863, 10, 20, 700),                                // partly off it
		bitvec.New(863),                                                     // the empty pattern
	}
	sink := 0.0
	for _, p := range probes {
		for _, k := range []struct {
			name string
			fn   func()
		}{
			{"Naive.EstimateMarginal", func() { sink += e.EstimateMarginal(p) }},
			{"Naive.EstimateCount", func() { sink += e.EstimateCount(p) }},
			{"Mixture.EstimateCount", func() { sink += mix.EstimateCount(p) }},
		} {
			if a := testing.AllocsPerRun(100, k.fn); a != 0 {
				t.Errorf("%s(%v): %v allocs per call, want 0", k.name, p.Indices(), a)
			}
		}
	}
	_ = sink
}
