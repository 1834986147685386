package workload_test

import (
	"testing"

	"logr/internal/mining"
)

// The categorical datasets of Table 2 are one-hot encodings of
// multi-valued attributes whose values follow this package's ZipfWeights.
// These tests pin their shape: the paper's feature and attribute counts,
// exactly one feature set per attribute group, and a usable label rate.

func TestIncomeShape(t *testing.T) {
	ds := mining.Income(mining.IncomeConfig{Rows: 3000, Seed: 3})
	d := ds.Data
	if d.Universe() != 783 {
		t.Fatalf("universe = %d, want 783", d.Universe())
	}
	if len(ds.Groups) != 9 {
		t.Fatalf("groups = %d, want 9", len(ds.Groups))
	}
	if d.Total() != 3000 {
		t.Errorf("rows = %d", d.Total())
	}
	// every row sets exactly one feature per group → 9 features per tuple
	for i := 0; i < d.Distinct(); i++ {
		if d.Vector(i).Count() != 9 {
			t.Fatalf("row %d has %d features, want 9", i, d.Vector(i).Count())
		}
	}
	// label must be informative but not degenerate
	rate := d.PositiveRate()
	if rate < 0.02 || rate > 0.6 {
		t.Errorf("positive rate = %g", rate)
	}
}

func TestMushroomShape(t *testing.T) {
	ds := mining.Mushroom(mining.MushroomConfig{Rows: 2000, Seed: 4})
	d := ds.Data
	if d.Universe() != 95 {
		t.Fatalf("universe = %d, want 95", d.Universe())
	}
	if len(ds.Groups) != 21 {
		t.Fatalf("groups = %d, want 21", len(ds.Groups))
	}
	for i := 0; i < d.Distinct() && i < 50; i++ {
		if d.Vector(i).Count() != 21 {
			t.Fatalf("row has %d features, want 21", d.Vector(i).Count())
		}
	}
	rate := d.PositiveRate()
	if rate < 0.2 || rate > 0.8 {
		t.Errorf("edible rate = %g", rate)
	}
}

func TestGroupsAreMutuallyExclusive(t *testing.T) {
	ds := mining.Mushroom(mining.MushroomConfig{Rows: 500, Seed: 5})
	for i := 0; i < ds.Data.Distinct(); i++ {
		v := ds.Data.Vector(i)
		for _, g := range ds.Groups {
			set := 0
			for _, f := range g {
				if v.Get(f) {
					set++
				}
			}
			if set != 1 {
				t.Fatalf("row %d sets %d features in one group", i, set)
			}
		}
	}
}
