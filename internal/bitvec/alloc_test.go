package bitvec

import "testing"

// TestKernelAllocs pins every batch kernel and Into variant the clustering
// and mining hot paths rely on at zero allocations per call once scratch
// is warm.
func TestKernelAllocs(t *testing.T) {
	const n = 700
	v := FromIndices(n, 1, 64, 65, 130, 400, 699)
	u := FromIndices(n, 1, 2, 65, 131, 400, 698)
	us := []Vector{u, v, u.Or(v), u.And(v)}
	counts := make([]int, len(us))
	dense := make([]float64, n)
	for i := range dense {
		dense[i] = float64(i%7) * 0.25
	}
	var scratch, wide Vector
	v.AndInto(u, &scratch)   // warm the scratch storage
	v.GrowInto(n+200, &wide) // warm the widened storage
	sink := 0
	fsink := 0.0

	cases := []struct {
		name string
		fn   func()
	}{
		{"AndCount", func() { sink += v.AndCount(u) }},
		{"XorCount", func() { sink += v.XorCount(u) }},
		{"AndCountInto", func() { v.AndCountInto(us, counts) }},
		{"AccumulateInto", func() { v.AccumulateInto(dense, 0) }},
		{"SqDist", func() { fsink += v.SqDist(dense) }},
		{"Contains", func() { _ = v.Contains(u) }},
		{"NextSet", func() { sink += v.NextSet(66) }},
		{"AndInto", func() { v.AndInto(u, &scratch) }},
		{"OrInto", func() { v.OrInto(u, &scratch) }},
		{"AndNotInto", func() { v.AndNotInto(u, &scratch) }},
		{"CopyInto", func() { v.CopyInto(&scratch) }},
		{"GrowInto", func() { v.GrowInto(n+200, &wide) }},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs != 0 {
			t.Errorf("%s allocated %.1f times per run, want 0", c.name, allocs)
		}
	}
	_ = sink
	_ = fsink
}

// TestIntoVariantsMatchAllocatingForms checks the Into kernels agree
// bit-for-bit with their allocating counterparts, including when the
// destination is reused across differently-sized operands.
func TestIntoVariantsMatchAllocatingForms(t *testing.T) {
	var dst Vector
	sizes := []int{1, 63, 64, 65, 130, 700, 64, 1}
	for _, n := range sizes {
		v := New(n)
		u := New(n)
		for i := 0; i < n; i += 3 {
			v.Set(i)
		}
		for i := 0; i < n; i += 5 {
			u.Set(i)
		}
		v.AndInto(u, &dst)
		if !dst.Equal(v.And(u)) {
			t.Fatalf("n=%d: AndInto diverges from And", n)
		}
		v.OrInto(u, &dst)
		if !dst.Equal(v.Or(u)) {
			t.Fatalf("n=%d: OrInto diverges from Or", n)
		}
		v.AndNotInto(u, &dst)
		if !dst.Equal(v.AndNot(u)) {
			t.Fatalf("n=%d: AndNotInto diverges from AndNot", n)
		}
		v.CopyInto(&dst)
		if !dst.Equal(v) {
			t.Fatalf("n=%d: CopyInto diverges from Clone", n)
		}
		v.GrowInto(n+130, &dst)
		if !dst.Equal(v.Grow(n + 130)) {
			t.Fatalf("n=%d: GrowInto diverges from Grow", n)
		}
	}
	// aliasing: dst may be one of the operands
	a := FromIndices(200, 3, 64, 199)
	b := FromIndices(200, 3, 65, 199)
	want := a.And(b)
	a.AndInto(b, &a)
	if !a.Equal(want) {
		t.Fatal("AndInto with dst aliasing the receiver diverges")
	}
}
