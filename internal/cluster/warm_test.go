package cluster

import (
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
)

// Warm-start tests: placing points by centroids that are already known is
// NearestBinary, the one assignment step Recompress runs for new query
// shapes. Label ↔ centroid correspondence is the contract incremental
// recompression builds on.

func TestKMeansWarmStartAssignsNearest(t *testing.T) {
	vec := func(bits ...int) bitvec.Vector { return bitvec.FromIndices(4, bits...) }
	cents := [][]float64{{0, 0, 0, 0}, {1, 1, 0, 0}, {0.5, 0.5, 0.5, 0.5}, {0, 0, 1, 1}}
	pts := []bitvec.Vector{vec(0), vec(0, 1), vec(2, 3), vec(3), vec(0, 1, 2)}
	// centroid 2 is nearest to no point, and label 3 still names cents[3]
	want := []int{0, 1, 3, 0, 1}
	if got := NearestBinary(pts, cents, 1); !reflect.DeepEqual(got, want) {
		t.Fatalf("labels %v; want %v (no compaction, empty cluster kept)", got, want)
	}
}

// NearestBinary takes no seed, so only parallelism can move its answer; it
// must not.
func TestKMeansWarmStartIgnoresSeedAndParallelism(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	pts, _ := randBinary(r, 500, 64, 1, 3)
	cents := make([][]float64, 6)
	for c := range cents {
		cents[c] = make([]float64, 64)
		for j := range cents[c] {
			cents[c][j] = r.Float64()
		}
	}
	base := NearestBinary(pts.Vecs, cents, 1)
	for _, par := range []int{2, 4, 0} {
		if got := NearestBinary(pts.Vecs, cents, par); !reflect.DeepEqual(got, base) {
			t.Fatalf("parallelism %d changed the labels", par)
		}
	}
}

func TestKMeansWarmStartKExceedsN(t *testing.T) {
	// more centroids than points: labels are not compacted to 0..n-1 —
	// unpopulated centroids keep their index, keeping label identity
	cents := [][]float64{{0, 0, 0}, {1, 0, 0}, {1, 1, 0}, {1, 1, 1}}
	pts := []bitvec.Vector{bitvec.FromIndices(3, 0, 1, 2), bitvec.FromIndices(3)}
	if got := NearestBinary(pts, cents, 1); !reflect.DeepEqual(got, []int{3, 0}) {
		t.Fatalf("labels = %v; want [3 0]", got)
	}
}

func TestKMeansWarmStartEmptyPoints(t *testing.T) {
	cents := [][]float64{{0}, {1}}
	for _, pts := range [][]bitvec.Vector{nil, {}} {
		for _, par := range []int{1, 0} {
			if got := NearestBinary(pts, cents, par); len(got) != 0 {
				t.Fatalf("empty input par=%d: labels %v", par, got)
			}
		}
	}
}

func TestKMeansWarmStartDoesNotMutateCentroids(t *testing.T) {
	cents := [][]float64{{0, 0.25, 0}, {1, 1, 0.75}}
	want := [][]float64{{0, 0.25, 0}, {1, 1, 0.75}}
	pts := []bitvec.Vector{bitvec.FromIndices(3, 0), bitvec.FromIndices(3, 0, 1, 2), bitvec.FromIndices(3, 1)}
	for _, par := range []int{1, 0} {
		NearestBinary(pts, cents, par)
		if !reflect.DeepEqual(cents, want) {
			t.Fatalf("par=%d: NearestBinary mutated the caller's centroids: %v", par, cents)
		}
	}
}
