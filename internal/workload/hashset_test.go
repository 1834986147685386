package workload

import (
	"encoding/binary"
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

// TestRestoreSizesHashShardsOnce: restoring an admission frame sizes each
// shard's slot table once, for every hash the frame holds, instead of
// doubling it while the hashes go in one by one; and no table is larger
// than its members need.
func TestRestoreSizesHashShardsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	frame := func(n int) []byte {
		b := binary.AppendUvarint([]byte{0, 0}, uint64(n)) // no features, no canonical queries
		for i := 0; i < n; i++ {
			b = binary.LittleEndian.AppendUint64(b, rng.Uint64())
		}
		return b
	}
	var e *Encoder
	restore := func(b []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			e = NewEncoder(EncodeOptions{})
			if _, err := e.RestoreAdmissions(b, StateVersion); err != nil {
				t.Fatal(err)
			}
		})
	}
	// one hash takes one shard's table and one chunk; what else a restore
	// allocates is the same for both frames
	const n = 100_000
	one, all := restore(frame(1)), restore(frame(n))
	chunks := (n + hashChunk - 1) / hashChunk
	if want := float64(len(e.rawHashes.shards) - 1 + chunks - 1); all-one != want {
		t.Errorf("a restore of %d hashes allocated %v times more than one of a single hash, want %v", n, all-one, want)
	}
	for i, x := range e.rawHashes.shards {
		if least := max(64, 4*x.n/3); len(x.slots) >= 2*least {
			t.Errorf("shard %d holds %d members in %d slots", i, x.n, len(x.slots))
		}
	}
	if e.rawHashes.len() != n {
		t.Fatalf("restored %d hashes, want %d", e.rawHashes.len(), n)
	}
}

// TestHashSetShardsGrowOneAtATime: the shards fill evenly, yet the index
// grows in steps of one shard. No add re-slots more than one shard, and
// once the set is large enough for its shards' fill to be even, two shard
// growths lie at least 1/64 of the set's members apart, so the index never
// doubles whole within a few inserts.
func TestHashSetShardsGrowOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s hashSet
	var sizes [len(s.shards)]int
	last, grown := 0, 0
	for s.len() < 1<<21 {
		s.add(rng.Uint64())
		changed := 0
		for i := range s.shards {
			if n := len(s.shards[i].slots); n != sizes[i] {
				sizes[i] = n
				changed++
			}
		}
		if changed > 1 {
			t.Fatalf("adding member %d re-slotted %d shards", s.len(), changed)
		}
		if changed == 0 || s.len() < 1<<18 {
			continue
		}
		if gap := s.len() - last; last > 0 && 64*gap < s.len() {
			t.Fatalf("shards grew at members %d and %d, %d apart", last, s.len(), gap)
		}
		last = s.len()
		grown++
	}
	// three octaves of members: every shard doubled three times
	if grown < 3*len(s.shards)-1 {
		t.Fatalf("%d shard growths past 2^18 members, want about %d", grown, 3*len(s.shards))
	}
}
