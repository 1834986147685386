package bitvec

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func randVec(r *rand.Rand, n int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			v.Set(i)
		}
	}
	return v
}

func TestSetGetClear(t *testing.T) {
	v := New(130) // spans three words
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if v.Get(i) {
			t.Errorf("bit %d set in fresh vector", i)
		}
		v.Set(i)
		if !v.Get(i) {
			t.Errorf("bit %d not set after Set", i)
		}
		v.Clear(i)
		if v.Get(i) {
			t.Errorf("bit %d still set after Clear", i)
		}
	}
}

func TestCountAndIndices(t *testing.T) {
	v := FromIndices(100, 3, 17, 64, 99)
	if v.Count() != 4 {
		t.Errorf("Count = %d, want 4", v.Count())
	}
	want := []int{3, 17, 64, 99}
	if got := v.Indices(); !reflect.DeepEqual(got, want) {
		t.Errorf("Indices = %v, want %v", got, want)
	}
}

func TestContains(t *testing.T) {
	q := FromIndices(10, 1, 3, 5, 7)
	b := FromIndices(10, 3, 7)
	if !q.Contains(b) {
		t.Error("q should contain b")
	}
	if b.Contains(q) {
		t.Error("b should not contain q")
	}
	if !q.Contains(New(10)) {
		t.Error("every vector contains the empty pattern")
	}
	if !q.Contains(q) {
		t.Error("containment must be reflexive")
	}
}

func TestSetOps(t *testing.T) {
	a := FromIndices(70, 1, 2, 3, 65)
	b := FromIndices(70, 2, 3, 4, 66)
	if got := a.And(b).Indices(); !reflect.DeepEqual(got, []int{2, 3}) {
		t.Errorf("And = %v", got)
	}
	if got := a.Or(b).Indices(); !reflect.DeepEqual(got, []int{1, 2, 3, 4, 65, 66}) {
		t.Errorf("Or = %v", got)
	}
	if got := a.AndNot(b).Indices(); !reflect.DeepEqual(got, []int{1, 65}) {
		t.Errorf("AndNot = %v", got)
	}
	if a.Hamming(b) != 4 {
		t.Errorf("Hamming = %d, want 4", a.Hamming(b))
	}
}

func TestKeyUniqueness(t *testing.T) {
	seen := map[string]Vector{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		v := randVec(r, 67)
		k := v.Key()
		if prev, ok := seen[k]; ok && !prev.Equal(v) {
			t.Fatalf("key collision: %s vs %s", prev, v)
		}
		seen[k] = v
	}
	// different universes never collide
	a, b := New(1), New(65)
	if a.Key() == b.Key() {
		t.Error("keys collide across universes")
	}
}

// TestKeyBytes pins Key's bytes, which core/refine.go's candidate order
// sorts by, and its single allocation.
func TestKeyBytes(t *testing.T) {
	for _, c := range []struct {
		v    Vector
		want string
	}{
		{New(0), "0:"},
		{FromIndices(64, 0, 63), "64:\x01\x00\x00\x00\x00\x00\x00\x80"},
		{FromIndices(65, 1, 8, 64), "65:\x02\x01\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00"},
	} {
		if got := c.v.Key(); got != c.want {
			t.Errorf("Key of %v over %d = %q, want %q", c.v.Indices(), c.v.Len(), got, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { _ = c.v.Key() }); allocs != 1 {
			t.Errorf("Key over %d allocates %v times, want 1", c.v.Len(), allocs)
		}
	}
}

func TestGrow(t *testing.T) {
	v := FromIndices(5, 0, 4)
	w := v.Grow(200)
	if w.Len() != 200 || !w.Get(0) || !w.Get(4) || w.Count() != 2 {
		t.Errorf("Grow broke bits: %v", w.Indices())
	}
}

func TestString(t *testing.T) {
	v := FromIndices(6, 0, 2, 3)
	if v.String() != "101100" {
		t.Errorf("String = %q", v.String())
	}
}

func TestPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on universe mismatch")
		}
	}()
	New(3).Contains(New(4))
}

// Property: containment is a partial order consistent with And/Or lattice ops.
func TestContainmentLatticeProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(150)
		a, b := randVec(r, n), randVec(r, n)
		meet, join := a.And(b), a.Or(b)
		return a.Contains(meet) && b.Contains(meet) &&
			join.Contains(a) && join.Contains(b) &&
			(meet.Count()+join.Count() == a.Count()+b.Count())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hamming distance is a metric (symmetry, identity, triangle).
func TestHammingMetricProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		a, b, c := randVec(r, n), randVec(r, n), randVec(r, n)
		dab, dba := a.Hamming(b), b.Hamming(a)
		return dab == dba &&
			a.Hamming(a) == 0 &&
			a.Hamming(c) <= dab+b.Hamming(c) &&
			(dab != 0 || a.Equal(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Indices/FromIndices round-trip.
func TestIndicesRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		v := randVec(r, n)
		return FromIndices(n, v.Indices()...).Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the NextSet walk visits exactly Indices, in order, from any
// start.
func TestNextSetWalksIndices(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(200)
		v := randVec(r, n)
		var walk []int
		for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) {
			walk = append(walk, i)
		}
		if !slices.Equal(walk, v.Indices()) {
			return false
		}
		start := r.Intn(n + 70)
		want := -1
		for _, i := range v.Indices() {
			if i >= start {
				want = i
				break
			}
		}
		return v.NextSet(start) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
