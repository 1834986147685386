package core

import (
	"math"
	"reflect"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
)

// blobLog builds a log with two well-separated shapes over a universe of 6:
// features {0,1,2} vs {3,4,5}, with enough variation inside each blob that
// its naive encoding has a strictly positive Reproduction Error (the drift
// fallback's relative threshold needs a nonzero baseline).
func blobLog() *Log {
	l := NewLog(6)
	l.Add(bitvec.FromIndices(6, 0, 1), 40)
	l.Add(bitvec.FromIndices(6, 0, 2), 20)
	l.Add(bitvec.FromIndices(6, 0, 1, 2), 20)
	l.Add(bitvec.FromIndices(6, 3, 4), 30)
	l.Add(bitvec.FromIndices(6, 3, 5), 10)
	l.Add(bitvec.FromIndices(6, 3, 4, 5), 20)
	return l
}

func TestLogGrow(t *testing.T) {
	l := blobLog()
	g := l.Grow(9)
	if g.Universe() != 9 || g.Total() != l.Total() || g.Distinct() != l.Distinct() {
		t.Fatalf("grown log shape: universe %d total %d distinct %d", g.Universe(), g.Total(), g.Distinct())
	}
	for i := 0; i < l.Distinct(); i++ {
		if got, want := g.Vector(i).Indices(), l.Vector(i).Indices(); len(got) != len(want) {
			t.Fatalf("vector %d changed: %v vs %v", i, got, want)
		}
		if g.Multiplicity(i) != l.Multiplicity(i) {
			t.Fatalf("multiplicity %d changed", i)
		}
	}
	// grown log accepts vectors over the new universe
	g.Add(bitvec.FromIndices(9, 7, 8), 5)
	if g.Total() != l.Total()+5 {
		t.Fatal("grown log did not accept a new-universe vector")
	}
	// the original is untouched (Grow deep-copies)
	if l.Total() != 140 {
		t.Fatalf("Grow mutated the source log: total %d", l.Total())
	}
}

// TestNaiveGrowEstimates: a naive encoding is valid over any universe that
// covers its support. Probes over a grown universe estimate exactly as over
// the original one, features past the old universe estimate to 0, and the
// dense marginal row pads them with zeros.
func TestNaiveGrowEstimates(t *testing.T) {
	l := blobLog()
	e := NaiveEncode(l)
	old := bitvec.FromIndices(9, 0, 1)
	if got, want := e.EstimateMarginal(old), e.EstimateMarginal(bitvec.FromIndices(6, 0, 1)); got != want {
		t.Fatalf("in-universe estimate moved: %v vs %v", got, want)
	}
	if p := e.EstimateMarginal(bitvec.FromIndices(9, 0, 8)); p != 0 {
		t.Fatalf("new-feature estimate = %v; want 0", p)
	}
	row := e.Dense(9)
	if !reflect.DeepEqual(row[:6], l.FeatureMarginals()) || row[6] != 0 || row[7] != 0 || row[8] != 0 {
		t.Fatalf("grown dense row %v, log marginals %v", row, l.FeatureMarginals())
	}
}

func TestMixtureGrowAndMerge(t *testing.T) {
	l := blobLog()
	mix, parts := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 0, 1, 1, 1}, K: 2})
	grown := mix.Grow(9)
	if grown.Universe != 9 || grown.K() != mix.K() || grown.Total != mix.Total {
		t.Fatalf("grown mixture shape: %+v", grown)
	}
	probe := bitvec.FromIndices(9, 0, 1)
	if got, want := grown.EstimateMarginal(probe), mix.EstimateMarginal(bitvec.FromIndices(6, 0, 1)); got != want {
		t.Fatalf("grow moved an estimate: %v vs %v", got, want)
	}

	// a second log over a larger universe, using a new feature
	l2 := NewLog(9)
	l2.Add(bitvec.FromIndices(9, 7, 8), 100)
	mix2, _ := BuildNaiveMixture(l2, cluster.Assignment{Labels: []int{0}, K: 1})

	merged := mix.Merge(mix2)
	if merged.Universe != 9 || merged.K() != 3 || merged.Total != 240 {
		t.Fatalf("merged mixture shape: universe %d K %d total %d", merged.Universe, merged.K(), merged.Total)
	}
	wsum := 0.0
	for i := range merged.Components {
		wsum += merged.Weight(i)
	}
	if math.Abs(wsum-1) > 1e-12 {
		t.Fatalf("merged weights sum to %v", wsum)
	}
	// counts are additive across the merge
	if got := merged.EstimateCount(probe); math.Abs(got-mix.EstimateCount(bitvec.FromIndices(6, 0, 1))) > 1e-9 {
		t.Fatalf("merged count for an a-side pattern = %v", got)
	}
	if got := merged.EstimateCount(bitvec.FromIndices(9, 7, 8)); math.Abs(got-100) > 1e-9 {
		t.Fatalf("merged count for the b-side pattern = %v; want 100", got)
	}
	_ = parts
}

// TestMixtureMergeAssociativeExact: merging is exact, so (a⊕b)⊕c and
// a⊕(b⊕c) are the same mixture bit for bit — every component, every
// weight and every marginal estimate.
func TestMixtureMergeAssociativeExact(t *testing.T) {
	a := compressSeg(t, segLog(64, 40, 1), 3).Mixture
	b := compressSeg(t, segLog(80, 50, 2), 3).Mixture
	c := compressSeg(t, segLog(96, 30, 3), 2).Mixture
	left, right := a.Merge(b).Merge(c), a.Merge(b.Merge(c))
	if !reflect.DeepEqual(left, right) {
		t.Fatal("(a⊕b)⊕c and a⊕(b⊕c) differ")
	}
	for i := range left.Components {
		if l, r := left.Weight(i), right.Weight(i); math.Float64bits(l) != math.Float64bits(r) {
			t.Fatalf("component %d weight %v vs %v", i, l, r)
		}
	}
	for f := 0; f < left.Universe; f++ {
		for g := f; g < left.Universe; g += 7 {
			p := bitvec.FromIndices(left.Universe, f, g)
			if l, r := left.EstimateMarginal(p), right.EstimateMarginal(p); math.Float64bits(l) != math.Float64bits(r) {
				t.Fatalf("estimate of {%d, %d}: %v vs %v", f, g, l, r)
			}
		}
	}
}

// compressBlobs is a helper producing a baseline Compressed of blobLog.
func compressBlobs(t *testing.T) (*Log, *Compressed, []int) {
	t.Helper()
	l := blobLog()
	c, err := Compress(l, CompressOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int, l.Distinct())
	for i := range counts {
		counts[i] = l.Multiplicity(i)
	}
	return l, c, counts
}

// TestRecompressIncrementalMerge: increments rejoin their component and new
// vectors join the nearest one; K and fidelity are preserved for a
// same-structure delta.
func TestRecompressIncrementalMerge(t *testing.T) {
	l, prev, counts := compressBlobs(t)

	// grow the log: more of an existing shape, plus a new shape near blob 2
	// that uses a new feature (universe 6 → 7)
	full := l.Grow(7)
	full.Add(bitvec.FromIndices(7, 0, 1), 10)       // increment of distinct #0
	full.Add(bitvec.FromIndices(7, 3, 4, 5, 6), 15) // new vector near blob 2

	got, incremental, err := Recompress(prev, full, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !incremental {
		t.Fatalf("near-structure delta fell back to a full re-cluster (err %v vs prev %v)", got.Err, prev.Err)
	}
	if got.Mixture.K() != 2 || got.Mixture.Universe != 7 || got.Mixture.Total != 165 {
		t.Fatalf("merged mixture shape: K %d universe %d total %d", got.Mixture.K(), got.Mixture.Universe, got.Mixture.Total)
	}
	// partitions must cover the full log exactly
	sum := 0
	for _, p := range got.Parts {
		sum += p.Total()
	}
	if sum != full.Total() {
		t.Fatalf("partitions cover %d of %d queries", sum, full.Total())
	}
	// the new vector joined the blob-2 component: that part contains it
	found := false
	for _, p := range got.Parts {
		if p.Count(bitvec.FromIndices(7, 3, 4, 5, 6)) > 0 && p.Count(bitvec.FromIndices(7, 3, 4)) > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("new vector did not join the component holding its neighbors")
	}
	// prev is untouched: same universe, same parts totals
	if prev.Mixture.Universe != 6 {
		t.Fatal("Recompress mutated prev's mixture")
	}
	prevSum := 0
	for _, p := range prev.Parts {
		prevSum += p.Total()
	}
	if prevSum != 140 {
		t.Fatalf("Recompress mutated prev's parts: %d", prevSum)
	}
}

func TestRecompressDeterministic(t *testing.T) {
	l, prev, counts := compressBlobs(t)
	full := l.Grow(7)
	full.Add(bitvec.FromIndices(7, 0, 2, 6), 7)
	a, _, err := Recompress(prev, full, counts, CompressOptions{K: 2, Seed: 1, Parallelism: 1}, RecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// different seed and parallelism: the incremental path consumes no
	// randomness, so the result is bit-identical
	b, _, err := Recompress(prev, full, counts, CompressOptions{K: 2, Seed: 99, Parallelism: 4}, RecompressOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Err != b.Err || a.Mixture.K() != b.Mixture.K() {
		t.Fatalf("incremental path not deterministic: %v/%d vs %v/%d", a.Err, a.Mixture.K(), b.Err, b.Mixture.K())
	}
}

// TestRecompressFallbacks: inputs that cannot support a merge run the full
// path.
func TestRecompressFallbacks(t *testing.T) {
	l, prev, counts := compressBlobs(t)

	// unknown previous error (e.g. restored summary)
	broken := &Compressed{Mixture: prev.Mixture, Parts: prev.Parts, Err: math.NaN()}
	if _, incremental, err := Recompress(broken, l, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{}); err != nil || incremental {
		t.Fatalf("NaN-error prev: incremental=%v err=%v; want full path", incremental, err)
	}

	// baseline counts exceeding the log (shrunk log = foreign baseline)
	tooMany := append(append([]int{}, counts...), 1, 1, 1)
	if _, incremental, err := Recompress(prev, l, tooMany, CompressOptions{K: 2, Seed: 1}, RecompressOptions{}); err != nil || incremental {
		t.Fatalf("overlong counts: incremental=%v err=%v; want full path", incremental, err)
	}

	// negative delta (a multiplicity decreased)
	shrunk := append([]int{}, counts...)
	shrunk[0] = counts[0] + 5
	if _, incremental, err := Recompress(prev, l, shrunk, CompressOptions{K: 2, Seed: 1}, RecompressOptions{}); err != nil || incremental {
		t.Fatalf("negative delta: incremental=%v err=%v; want full path", incremental, err)
	}

	// nil prev
	if _, incremental, err := Recompress(nil, l, nil, CompressOptions{K: 2, Seed: 1}, RecompressOptions{}); err != nil || incremental {
		t.Fatalf("nil prev: incremental=%v err=%v; want full path", incremental, err)
	}
}

// TestRecompressErrorDriftFallback: a delta that the old partition cannot
// absorb within MaxErrorGrowth triggers the full re-cluster, which must
// match a plain Compress of the grown log.
func TestRecompressErrorDriftFallback(t *testing.T) {
	l, prev, counts := compressBlobs(t)
	full := l.Grow(12)
	// a third, diverse blob the two existing components must misrepresent
	full.Add(bitvec.FromIndices(12, 6, 7), 40)
	full.Add(bitvec.FromIndices(12, 8, 9), 40)
	full.Add(bitvec.FromIndices(12, 10, 11), 40)
	full.Add(bitvec.FromIndices(12, 6, 9, 11), 40)

	got, incremental, err := Recompress(prev, full, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: 0.0001})
	if err != nil {
		t.Fatal(err)
	}
	if incremental {
		t.Fatalf("drifted delta kept the merge: err %v vs prev %v", got.Err, prev.Err)
	}
	want, err := Compress(full, CompressOptions{K: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got.Err != want.Err {
		t.Fatalf("fallback err %v != full compress err %v", got.Err, want.Err)
	}

	// with the fallback disabled the merge is kept regardless of drift
	merged, incremental, err := Recompress(prev, full, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: -1})
	if err != nil || !incremental {
		t.Fatalf("disabled fallback: incremental=%v err=%v", incremental, err)
	}
	if merged.Mixture.Total != full.Total() {
		t.Fatalf("merged total %d != %d", merged.Mixture.Total, full.Total())
	}
}

// TestRecompressNoDeltaCore: an unchanged log short-circuits.
func TestRecompressNoDeltaCore(t *testing.T) {
	l, prev, counts := compressBlobs(t)
	got, incremental, err := Recompress(prev, l, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{})
	if err != nil || !incremental {
		t.Fatalf("incremental=%v err=%v", incremental, err)
	}
	if got != prev {
		t.Fatal("no-delta recompress should return prev unchanged")
	}
}

// TestRecompressLabelsEveryVector: an incremental result labels every
// distinct vector of the grown log with the part holding it, so it can be
// the prev of the next Recompress; a prev whose labels do not cover the
// baseline counts, or do not name the parts holding its vectors, cannot
// place its increments and runs the full path.
func TestRecompressLabelsEveryVector(t *testing.T) {
	l, prev, counts := compressBlobs(t)
	full := l.Grow(7)
	full.Add(bitvec.FromIndices(7, 0, 1), 10)
	full.Add(bitvec.FromIndices(7, 3, 4, 5, 6), 15)
	full.Add(bitvec.FromIndices(7, 0, 6), 4)
	got, incremental, err := Recompress(prev, full, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: -1})
	if err != nil || !incremental {
		t.Fatalf("incremental=%v err=%v", incremental, err)
	}
	if len(got.Assignment.Labels) != full.Distinct() || got.Assignment.K != len(got.Parts) {
		t.Fatalf("%d labels over K=%d for %d distinct vectors in %d parts", len(got.Assignment.Labels), got.Assignment.K, full.Distinct(), len(got.Parts))
	}
	holds := func(p *Log, v bitvec.Vector) int {
		for j := 0; j < p.Distinct(); j++ {
			if p.Vector(j).Key() == v.Key() {
				return p.Multiplicity(j)
			}
		}
		return 0
	}
	for i, lbl := range got.Assignment.Labels {
		if n := holds(got.Parts[lbl], full.Vector(i)); n != full.Multiplicity(i) {
			t.Fatalf("vector %d labeled %d, whose part holds %d of its %d queries", i, lbl, n, full.Multiplicity(i))
		}
	}

	// chained: the result is the baseline of the next step
	next := full.Clone()
	next.Add(bitvec.FromIndices(7, 3, 4, 5, 6), 5)
	nextCounts := make([]int, full.Distinct())
	for i := range nextCounts {
		nextCounts[i] = full.Multiplicity(i)
	}
	if _, incremental, err := Recompress(got, next, nextCounts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: -1}); err != nil || !incremental {
		t.Fatalf("chained step: incremental=%v err=%v", incremental, err)
	}

	unlabeled := &Compressed{Mixture: prev.Mixture, Assignment: cluster.Assignment{K: len(prev.Parts)}, Parts: prev.Parts, Err: prev.Err}
	if _, incremental, err := Recompress(unlabeled, full, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: -1}); err != nil || incremental {
		t.Fatalf("unlabeled prev: incremental=%v err=%v; want full path", incremental, err)
	}
	// labels naming the other part: the increment's slot holds another vector
	swapped := make([]int, len(prev.Assignment.Labels))
	for i, lbl := range prev.Assignment.Labels {
		swapped[i] = 1 - lbl
	}
	mislabeled := &Compressed{Mixture: prev.Mixture, Assignment: cluster.Assignment{Labels: swapped, K: 2}, Parts: prev.Parts, Err: prev.Err}
	if _, incremental, err := Recompress(mislabeled, full, counts, CompressOptions{K: 2, Seed: 1}, RecompressOptions{MaxErrorGrowth: -1}); err != nil || incremental {
		t.Fatalf("mislabeled prev: incremental=%v err=%v; want full path", incremental, err)
	}
}
