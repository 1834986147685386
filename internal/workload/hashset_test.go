package workload

import (
	"math/rand"
	"testing"
)

// TestHashSet: members come back in insertion order, a repeat is refused
// however many growth steps lie between it and its first insertion, and a
// member whose home slot is taken (many share a shard and a home here)
// is still found.
func TestHashSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var s hashSet
	var want []uint64
	seen := map[uint64]bool{}
	for i := 0; i < 3*hashChunk; i++ {
		h := rng.Uint64()
		if i%3 == 0 {
			h &= 0xf00000000000ffff // crowd one shard's few home slots
		}
		if s.add(h) == seen[h] {
			t.Fatalf("add(%#x) disagrees with membership after %d members", h, len(want))
		}
		if !seen[h] {
			seen[h] = true
			want = append(want, h)
		}
	}
	for i, h := range want {
		if s.add(h) {
			t.Fatalf("member %d re-added", i)
		}
		if s.at(i) != h {
			t.Fatalf("member %d is %#x, inserted %#x", i, s.at(i), h)
		}
	}
	if s.len() != len(want) {
		t.Fatalf("len %d, want %d", s.len(), len(want))
	}
}
