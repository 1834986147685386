package workload

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
)

// hashSet is an append-only set of 64-bit hashes: the members in insertion
// order, which is what a checkpoint persists, and an open-addressing index
// over them — about 16 bytes per member in all. Both grow in small steps,
// the members in fixed-size chunks and the index in shards that double one
// at a time, so a set of millions never copies or re-slots itself whole:
// its peak footprint stays close to its size. Shards fill evenly (a
// uniform hash picks them), so equal sizes would make all of them double
// within a few inserts of each other; shard i's sizes are instead
// hashBase[i] times a power of two, the bases spread over one octave, and
// the shards double one by one as the set grows.
type hashSet struct {
	chunks [][]uint64 // the members, hashChunk to a chunk
	n      int
	shards [1 << hashShardBits]hashIndex // picked by a hash's top bits
}

const (
	hashChunk     = 1 << 13
	hashShardBits = 4
)

// hashBase[i] is shard i's smallest table, 64·2^(i/16) slots rounded.
var hashBase = func() (b [1 << hashShardBits]int) {
	for i := range b {
		b[i] = int(math.Round(64 * math.Exp2(float64(i)/float64(len(b)))))
	}
	return b
}()

// hashIndex is one shard of a hashSet's index: slots hold 1 + a member's
// position (so a set holds fewer than 2^32 members), 0 when empty, probed
// linearly from the slot a hash's mixed bits pick, at most 3/4 full.
type hashIndex struct {
	slots []uint32
	n     int
}

// add inserts h and reports whether it was absent.
//
//logr:noalloc
func (s *hashSet) add(h uint64) bool {
	shard := h >> (64 - hashShardBits)
	x := &s.shards[shard]
	if 4*(x.n+1) > 3*len(x.slots) {
		x.grow(s, hashBase[shard], x.n+1)
	}
	for i := x.home(h); ; i = x.step(i) {
		j := x.slots[i]
		if j == 0 {
			if s.n%hashChunk == 0 {
				s.chunks = append(s.chunks, make([]uint64, 0, hashChunk)) //logr:allow(noalloc) one chunk per hashChunk members
			}
			last := &s.chunks[len(s.chunks)-1]
			*last = append(*last, h)
			s.n++
			x.n++
			x.slots[i] = uint32(s.n)
			return true
		}
		if s.at(int(j)-1) == h {
			return false
		}
	}
}

// addAll inserts the little-endian hashes packed in b and reports whether
// every one was absent. It sizes each shard's index and the member chunks
// once for all of them up front, as a restore re-inserting millions of
// hashes would otherwise re-slot every shard at each doubling.
func (s *hashSet) addAll(b []byte) bool {
	var per [len(s.shards)]int
	for i := 0; i+8 <= len(b); i += 8 {
		per[binary.LittleEndian.Uint64(b[i:])>>(64-hashShardBits)]++
	}
	for i := range s.shards {
		if x := &s.shards[i]; 4*(x.n+per[i]) > 3*len(x.slots) {
			x.grow(s, hashBase[i], x.n+per[i])
		}
	}
	s.chunks = slices.Grow(s.chunks, (s.n+len(b)/8+hashChunk-1)/hashChunk-len(s.chunks))
	for i := 0; i+8 <= len(b); i += 8 {
		if !s.add(binary.LittleEndian.Uint64(b[i:])) {
			return false
		}
	}
	return true
}

// at returns the member at position j, in insertion order.
func (s *hashSet) at(j int) uint64 { return s.chunks[j/hashChunk][j%hashChunk] }

// len is the number of members.
func (s *hashSet) len() int { return s.n }

// home is h's first slot: the high word of its mixed bits times the table
// length, which spreads it over a table of any length and does not lean on
// the bits that picked the shard.
func (x *hashIndex) home(h uint64) int {
	hi, _ := bits.Mul64(h*0x9e3779b97f4a7c15, uint64(len(x.slots)))
	return int(hi)
}

// step is the slot after i, wrapping at the table's end.
func (x *hashIndex) step(i int) int {
	if i++; i == len(x.slots) {
		return 0
	}
	return i
}

// grow re-slots the shard's members into the smallest table of base·2^k
// slots that holds members at most 3/4 full.
func (x *hashIndex) grow(s *hashSet, base, members int) {
	old := x.slots
	n := base
	for 4*members > 3*n {
		n *= 2
	}
	x.slots = make([]uint32, n)
	for _, j := range old {
		if j == 0 {
			continue
		}
		i := x.home(s.at(int(j) - 1))
		for x.slots[i] != 0 {
			i = x.step(i)
		}
		x.slots[i] = j
	}
}

// hashRaw is the 64-bit FNV-1a hash of a raw statement. It is persisted in
// checkpoints, so it must never change.
func hashRaw[T string | []byte](s T) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}
