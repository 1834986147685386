package bitvec

import (
	"math/rand"
	"testing"
)

// randVecDensity returns a vector over n features with each bit set with
// probability num/den — the property tests sweep densities from near-empty
// to near-full.
func randVecDensity(r *rand.Rand, n, num, den int) Vector {
	v := New(n)
	for i := 0; i < n; i++ {
		if r.Intn(den) < num {
			v.Set(i)
		}
	}
	return v
}

func TestXorCountMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(300)
		a := randVecDensity(r, n, 1+r.Intn(4), 4)
		b := randVecDensity(r, n, 1+r.Intn(4), 4)
		da, db := a.Dense(), b.Dense()
		want := 0
		for i := range da {
			if da[i] != db[i] {
				want++
			}
		}
		if got := a.XorCount(b); got != want {
			t.Fatalf("n=%d: XorCount = %d, dense reference = %d", n, got, want)
		}
		if got := a.Hamming(b); got != want {
			t.Fatalf("n=%d: Hamming = %d, dense reference = %d", n, got, want)
		}
	}
}

func TestAndCountIntoMatchesAndCount(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(300)
		v := randVecDensity(r, n, 1, 3)
		us := make([]Vector, 1+r.Intn(8))
		for j := range us {
			us[j] = randVecDensity(r, n, 1+r.Intn(3), 3)
		}
		out := make([]int, len(us))
		v.AndCountInto(us, out)
		for j, u := range us {
			if want := v.AndCount(u); out[j] != want {
				t.Fatalf("n=%d: AndCountInto[%d] = %d, AndCount = %d", n, j, out[j], want)
			}
		}
	}
}

func TestAccumulateIntoMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + r.Intn(300)
		got := make([]float64, n)
		want := make([]float64, n)
		for pass := 0; pass < 5; pass++ {
			v := randVecDensity(r, n, 1+r.Intn(4), 4)
			w := float64(1 + r.Intn(1000))
			v.AccumulateInto(got, w)
			// dense reference in the same order: adding w·x_i for every
			// coordinate, where adding w·0 = 0.0 is a float no-op — so the
			// results must be bit-identical, not merely close.
			for i, x := range v.Dense() {
				want[i] += w * x
			}
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("n=%d: AccumulateInto[%d] = %v, dense reference = %v", n, i, got[i], want[i])
			}
		}
	}
}
