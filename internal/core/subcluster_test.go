package core

import (
	"math/rand"
	"testing"

	"logr/internal/bitvec"
)

func TestSplitWorstReducesError(t *testing.T) {
	// two disjoint workloads plus a uniform one: the mixed component is the
	// worst; splitting it should drop the error substantially.
	l := NewLog(8)
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		a := bitvec.New(8)
		for j := 0; j < 4; j++ {
			if r.Intn(2) == 0 {
				a.Set(j)
			}
		}
		l.Add(a, 1)
		b := bitvec.New(8)
		for j := 4; j < 8; j++ {
			if r.Intn(2) == 0 {
				b.Set(j)
			}
		}
		l.Add(b, 1)
	}
	c, err := Compress(l, CompressOptions{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	split, err := c.SplitWorst(1)
	if err != nil {
		t.Fatal(err)
	}
	if split.Err > c.Err+1e-9 {
		t.Errorf("split increased error: %g -> %g", c.Err, split.Err)
	}
	if split.Mixture.K() != c.Mixture.K()+1 {
		t.Errorf("K = %d, want %d", split.Mixture.K(), c.Mixture.K()+1)
	}
}

func TestRefineToTarget(t *testing.T) {
	l := section51Log()
	c, err := Compress(l, CompressOptions{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	refined, err := c.RefineToTarget(1e-9, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if refined.Err > 1e-9 {
		t.Errorf("refinement stopped at error %g", refined.Err)
	}
	if refined.Mixture.K() > l.Distinct() {
		t.Errorf("over-split: K = %d", refined.Mixture.K())
	}
}

func TestSplitWorstSingleton(t *testing.T) {
	l := NewLog(3)
	l.Add(bitvec.FromIndices(3, 0), 10)
	c, err := Compress(l, CompressOptions{K: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SplitWorst(1); err == nil {
		t.Error("expected error splitting a single-query component")
	}
}
