package core

import (
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
)

// segLog builds a pseudo-random log: clustered binary vectors over
// a fixed universe, deterministic in seed.
func segLog(universe, distinct int, seed int64) *Log {
	rng := rand.New(rand.NewSource(seed))
	l := NewLog(universe)
	for i := 0; i < distinct; i++ {
		center := (i % 3) * universe / 3
		v := bitvec.New(universe)
		for j := 0; j < 4; j++ {
			v.Set((center + rng.Intn(universe/3)) % universe)
		}
		l.Add(v, 1+rng.Intn(20))
	}
	return l
}

func compressSeg(t *testing.T, l *Log, k int) *Compressed {
	t.Helper()
	c, err := Compress(l, CompressOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompactionRuns(t *testing.T) {
	cases := []struct {
		sizes []int
		min   int
		want  [][2]int
	}{
		{nil, 100, nil},
		{[]int{500, 600}, 100, nil},                                // nothing small
		{[]int{50, 500}, 100, nil},                                 // lone small segment
		{[]int{50, 60, 500}, 100, [][2]int{{0, 2}}},                // adjacent smalls merge
		{[]int{500, 10, 20, 30, 40, 500}, 100, [][2]int{{1, 5}}},   // run inside
		{[]int{10, 20, 80, 10, 20}, 100, [][2]int{{0, 3}, {3, 5}}}, // run cut once it reaches the threshold
		{[]int{500, 99}, 100, nil},                                 // trailing lone small
	}
	for i, tc := range cases {
		got := CompactionRuns(tc.sizes, tc.min)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("case %d: CompactionRuns(%v, %d) = %v, want %v", i, tc.sizes, tc.min, got, tc.want)
		}
	}
}
