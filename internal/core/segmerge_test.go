package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"logr/internal/bitvec"
)

// segLog builds a pseudo-random segment log: clustered binary vectors over
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

// TestMergeRangeErrorIsWeightedCombination: the lossless merge's error is
// exactly the total-weighted average of the per-segment errors.
func TestMergeRangeErrorIsWeightedCombination(t *testing.T) {
	a := compressSeg(t, segLog(64, 40, 1), 3)
	b := compressSeg(t, segLog(64, 50, 2), 3)
	m, err := MergeRange([]*Compressed{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ta, tb := float64(a.Mixture.Total), float64(b.Mixture.Total)
	want := (ta*a.Err + tb*b.Err) / (ta + tb)
	if !almostEq(m.Err, want, 1e-9) {
		t.Fatalf("merged err %v != weighted combination %v", m.Err, want)
	}
	if m.Mixture.K() != a.Mixture.K()+b.Mixture.K() {
		t.Fatalf("merged K %d != %d + %d", m.Mixture.K(), a.Mixture.K(), b.Mixture.K())
	}
	if m.Mixture.Total != a.Mixture.Total+b.Mixture.Total {
		t.Fatalf("merged total %d", m.Mixture.Total)
	}
}

// TestMergeRangeGrowsUniverses: segments over growing universes merge onto
// the union universe with zero marginals on the features they predate.
func TestMergeRangeGrowsUniverses(t *testing.T) {
	a := compressSeg(t, segLog(48, 30, 3), 2)
	b := compressSeg(t, segLog(96, 30, 4), 2)
	m, err := MergeRange([]*Compressed{a, b}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.Mixture.Universe != 96 {
		t.Fatalf("universe = %d", m.Mixture.Universe)
	}
	// a's components contribute probability 0 to late features
	for _, c := range m.Mixture.Components[:a.Mixture.K()] {
		for f := 48; f < 96; f++ {
			if c.Marginal(f) != 0 {
				t.Fatalf("pre-growth component has marginal %v on late feature %d", c.Marginal(f), f)
			}
		}
	}
}

// TestMergeRangeDeterministicAndOrderRespecting: identical inputs produce
// identical outputs, and components appear in segment order.
func TestMergeRangeDeterministicAndOrderRespecting(t *testing.T) {
	segs := []*Compressed{
		compressSeg(t, segLog(64, 40, 1), 3),
		compressSeg(t, segLog(64, 50, 2), 2),
		compressSeg(t, segLog(64, 30, 3), 3),
	}
	m1, err := MergeRange(segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeRange(segs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Err != m2.Err || !reflect.DeepEqual(m1.Mixture, m2.Mixture) {
		t.Fatal("MergeRange is not deterministic across parallelism")
	}
	// order-respecting: per-segment component blocks appear in input order
	// with their encodings intact
	i := 0
	for _, s := range segs {
		for _, c := range s.Mixture.Components {
			if got := m1.Mixture.Components[i]; !reflect.DeepEqual(got, c) {
				t.Fatalf("component %d changed: %+v vs %+v", i, got, c)
			}
			i++
		}
	}
}

// TestMergeRangeAssociative: merge(a,b,c) and merge(merge(a,b),c) agree
// exactly in Reproduction Error and in every component and weight — the
// weights are each component's share of the range's queries, whatever the
// merge order.
func TestMergeRangeAssociative(t *testing.T) {
	a := compressSeg(t, segLog(64, 40, 1), 3)
	b := compressSeg(t, segLog(80, 50, 2), 3)
	c := compressSeg(t, segLog(96, 30, 3), 2)

	flat, err := MergeRange([]*Compressed{a, b, c}, 1)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := MergeRange([]*Compressed{a, b}, 1)
	if err != nil {
		t.Fatal(err)
	}
	nested, err := MergeRange([]*Compressed{ab, c}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if flat.Err != nested.Err {
		t.Fatalf("associativity broken: %v vs %v", flat.Err, nested.Err)
	}
	if flat.Mixture.K() != nested.Mixture.K() || flat.Mixture.Total != nested.Mixture.Total {
		t.Fatalf("shapes diverge: K %d vs %d", flat.Mixture.K(), nested.Mixture.K())
	}
	if !reflect.DeepEqual(flat.Mixture, nested.Mixture) {
		t.Fatal("component encodings diverge")
	}
	for i := range flat.Mixture.Components {
		if fw, nw := flat.Mixture.Weight(i), nested.Mixture.Weight(i); fw != nw {
			t.Fatalf("component %d weight %v vs %v", i, fw, nw)
		}
	}
}

// TestMergeRangeRejectsBareSummaries: summaries without partitions (e.g.
// restored from disk) cannot be range-merged.
func TestMergeRangeRejectsBareSummaries(t *testing.T) {
	a := compressSeg(t, segLog(64, 40, 1), 3)
	bare := &Compressed{Mixture: a.Mixture, Err: a.Err}
	if _, err := MergeRange([]*Compressed{a, bare}, 1); err == nil {
		t.Fatal("expected an error for a summary without parts")
	}
	nan := &Compressed{Mixture: a.Mixture, Parts: a.Parts, Err: math.NaN()}
	if _, err := MergeRange([]*Compressed{nan}, 1); err == nil {
		t.Fatal("expected an error for an unknown-error summary")
	}
}

// TestMergeAligned: warm-chained per-segment k-means runs keep label
// identity, so the aligned merge unions part i across segments — same
// total, exact error, component budget respected — without any scoring.
func TestMergeAligned(t *testing.T) {
	const k = 3
	l0, l1 := segLog(64, 50, 1), segLog(64, 60, 2)
	c0, err := Compress(l0, CompressOptions{K: k, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	warm := make([][]float64, 0, k)
	for _, c := range c0.Mixture.Components {
		warm = append(warm, c.Dense(c0.Mixture.Universe))
	}
	if len(warm) != k {
		t.Skipf("baseline collapsed to %d components", len(warm))
	}
	c1, err := Compress(l1, CompressOptions{K: k, Seed: 1, WarmCentroids: warm})
	if err != nil {
		t.Fatal(err)
	}
	if len(c0.Parts) != k || len(c1.Parts) != k {
		t.Fatalf("parts not label-aligned: %d and %d", len(c0.Parts), len(c1.Parts))
	}
	al, ok := MergeAligned([]*Compressed{c0, c1}, k, 1)
	if !ok {
		t.Fatal("aligned merge refused aligned inputs")
	}
	if al.Mixture.K() > k {
		t.Fatalf("aligned merge has %d components, budget %d", al.Mixture.K(), k)
	}
	if al.Mixture.Total != l0.Total()+l1.Total() {
		t.Fatalf("total %d, want %d", al.Mixture.Total, l0.Total()+l1.Total())
	}
	// group i is exactly part i of both segments
	for i := 0; i < k; i++ {
		want := c0.Parts[i].Total() + c1.Parts[i].Total()
		if got := al.Parts[i].Total(); got != want {
			t.Fatalf("group %d total %d, want %d", i, got, want)
		}
	}
	// error is evaluated exactly against the aligned partition
	e, err := al.Mixture.ErrorP(al.Parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(al.Err, e, 1e-9) {
		t.Fatalf("aligned Err %v != re-evaluated %v", al.Err, e)
	}
	// misaligned inputs are refused
	if _, ok := MergeAligned([]*Compressed{c0, c1}, k+1, 1); ok {
		t.Fatal("aligned merge accepted a mismatched K")
	}
}

// TestConsolidateReachesTargetK: greedy coalescing lands exactly on the
// component budget, the error stays exact, and the input is not mutated.
func TestConsolidateReachesTargetK(t *testing.T) {
	segs := []*Compressed{
		compressSeg(t, segLog(64, 40, 1), 4),
		compressSeg(t, segLog(64, 50, 2), 4),
		compressSeg(t, segLog(64, 45, 3), 4),
	}
	m, err := MergeRange(segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	beforeK := m.Mixture.K()
	c := Consolidate(m, CompressOptions{K: 4})
	if c.Mixture.K() != 4 {
		t.Fatalf("consolidated K = %d, want 4", c.Mixture.K())
	}
	if m.Mixture.K() != beforeK {
		t.Fatal("Consolidate mutated its input")
	}
	// exact error: re-evaluate against the consolidated partition
	e, err := c.Mixture.ErrorP(c.Parts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(c.Err, e, 1e-9) {
		t.Fatalf("consolidated Err %v != re-evaluated %v", c.Err, e)
	}
	// totals survive
	if c.Mixture.Total != m.Mixture.Total {
		t.Fatalf("total changed: %d vs %d", c.Mixture.Total, m.Mixture.Total)
	}
	// fewer components can only cost error (to float tolerance)
	if c.Err < m.Err-1e-9 {
		t.Fatalf("consolidation reduced error below the lossless merge implausibly: %v < %v", c.Err, m.Err)
	}
}

// TestConsolidateDeterministicAcrossParallelism: the pair scoring fans out,
// but the merge sequence and result are identical at any worker count.
func TestConsolidateDeterministicAcrossParallelism(t *testing.T) {
	segs := []*Compressed{
		compressSeg(t, segLog(64, 60, 5), 5),
		compressSeg(t, segLog(64, 60, 6), 5),
	}
	m, err := MergeRange(segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	c1 := Consolidate(m, CompressOptions{K: 3, Parallelism: 1})
	c4 := Consolidate(m, CompressOptions{K: 3, Parallelism: 4})
	if c1.Err != c4.Err || !reflect.DeepEqual(c1.Mixture, c4.Mixture) {
		t.Fatal("Consolidate is not deterministic across parallelism")
	}
}

// TestConsolidateErrorTarget: in error-target mode consolidation returns a
// cut within the target, smaller than the lossless merge.
func TestConsolidateErrorTarget(t *testing.T) {
	segs := []*Compressed{
		compressSeg(t, segLog(64, 40, 1), 4),
		compressSeg(t, segLog(64, 50, 2), 4),
	}
	m, err := MergeRange(segs, 1)
	if err != nil {
		t.Fatal(err)
	}
	target := m.Err * 1.5
	c := Consolidate(m, CompressOptions{TargetError: target})
	if c.Err > target+1e-9 {
		t.Fatalf("error-target mode overshot: %v > %v", c.Err, target)
	}
	if c.Mixture.K() >= m.Mixture.K() {
		t.Fatalf("no consolidation happened under a loose target (K %d)", c.Mixture.K())
	}
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
