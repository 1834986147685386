// Package bitvec implements compact binary feature vectors and the
// containment algebra used throughout LogR.
//
// A Vector represents a set of feature indices drawn from a finite universe
// of size n (Section 2.1 of the paper): v = (x_1, ..., x_n) with x_i ∈ {0,1}.
// Queries and patterns are both Vectors; a pattern b is contained in a query
// q iff b ⊆ q, i.e. every bit set in b is also set in q.
//
// The representation is a word-packed bitmap, which makes containment tests,
// intersections and Hamming distances cheap even for the multi-thousand
// feature universes produced by diverse logs. Beyond the set algebra, the
// package provides the batch kernels the binary clustering path runs on:
// XorCount (Hamming popcount), AndCountInto (batched intersection counts)
// and AccumulateInto (weighted bit-column accumulation for centroids and
// marginals).
package bitvec

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Vector is a fixed-universe binary vector. The zero value is an empty
// vector over an empty universe; use New to create one with capacity.
type Vector struct {
	n     int
	words []uint64
}

// New returns an all-zero Vector over a universe of n features.
func New(n int) Vector {
	if n < 0 {
		panic("bitvec: negative universe size")
	}
	return Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIndices returns a Vector over a universe of n features with the given
// indices set. Indices may repeat; out-of-range indices cause a panic.
func FromIndices(n int, indices ...int) Vector {
	v := New(n)
	for _, i := range indices {
		v.Set(i)
	}
	return v
}

// Len returns the universe size n.
func (v Vector) Len() int { return v.n }

// Set sets bit i.
//
//logr:noalloc
func (v Vector) Set(i int) {
	v.check(i)
	v.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear clears bit i.
//
//logr:noalloc
func (v Vector) Clear(i int) {
	v.check(i)
	v.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Get reports whether bit i is set.
//
//logr:noalloc
func (v Vector) Get(i int) bool {
	v.check(i)
	return v.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (v Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Count returns the number of set bits (the pattern's size |b|).
//
//logr:noalloc
func (v Vector) Count() int {
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// IsZero reports whether no bits are set.
//
//logr:noalloc
func (v Vector) IsZero() bool {
	for _, w := range v.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of v.
func (v Vector) Clone() Vector {
	w := Vector{n: v.n, words: make([]uint64, len(v.words))}
	copy(w.words, v.words)
	return w
}

// Equal reports whether v and u have the same universe and the same bits.
//
//logr:noalloc
func (v Vector) Equal(u Vector) bool {
	if v.n != u.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != u.words[i] {
			return false
		}
	}
	return true
}

// Contains reports whether b ⊆ v: every bit set in b is set in v.
// This is the pattern-containment relation of Section 2.1.
//
//logr:noalloc
func (v Vector) Contains(b Vector) bool {
	if v.n != b.n {
		panic("bitvec: universe size mismatch")
	}
	for i := range v.words {
		if b.words[i]&^v.words[i] != 0 {
			return false
		}
	}
	return true
}

// Intersects reports whether v and u share at least one set bit.
//
//logr:noalloc
func (v Vector) Intersects(u Vector) bool {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	for i := range v.words {
		if v.words[i]&u.words[i] != 0 {
			return true
		}
	}
	return false
}

// And returns v ∧ u as a new Vector.
func (v Vector) And(u Vector) Vector {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] & u.words[i]
	}
	return out
}

// Or returns v ∨ u as a new Vector.
func (v Vector) Or(u Vector) Vector {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] | u.words[i]
	}
	return out
}

// AndNot returns v ∧ ¬u (set difference) as a new Vector.
func (v Vector) AndNot(u Vector) Vector {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	out := New(v.n)
	for i := range v.words {
		out.words[i] = v.words[i] &^ u.words[i]
	}
	return out
}

// reshape resizes dst to a universe of n features, reusing its word
// storage when capacity allows. Word contents beyond what the caller
// overwrites are unspecified; every Into kernel writes the full span.
//
//logr:noalloc
func (dst *Vector) reshape(n int) {
	nw := (n + wordBits - 1) / wordBits
	if cap(dst.words) >= nw {
		dst.words = dst.words[:nw]
	} else {
		dst.words = make([]uint64, nw) //logr:allow(noalloc) capacity growth on universe widening, amortizes to zero
	}
	dst.n = n
}

// AndInto sets *dst to v ∧ u, reusing dst's word storage when it has
// capacity — the allocation-free form of And for hot loops that keep a
// scratch vector across iterations. dst may alias v or u.
//
//logr:noalloc
func (v Vector) AndInto(u Vector, dst *Vector) {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	dst.reshape(v.n)
	for i := range v.words {
		dst.words[i] = v.words[i] & u.words[i]
	}
}

// OrInto sets *dst to v ∨ u, reusing dst's word storage when it has
// capacity. dst may alias v or u.
//
//logr:noalloc
func (v Vector) OrInto(u Vector, dst *Vector) {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	dst.reshape(v.n)
	for i := range v.words {
		dst.words[i] = v.words[i] | u.words[i]
	}
}

// AndNotInto sets *dst to v ∧ ¬u, reusing dst's word storage when it has
// capacity. dst may alias v or u.
//
//logr:noalloc
func (v Vector) AndNotInto(u Vector, dst *Vector) {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	dst.reshape(v.n)
	for i := range v.words {
		dst.words[i] = v.words[i] &^ u.words[i]
	}
}

// CopyInto sets *dst to a copy of v, reusing dst's word storage when it
// has capacity — Clone without the allocation.
//
//logr:noalloc
func (v Vector) CopyInto(dst *Vector) {
	dst.reshape(v.n)
	copy(dst.words, v.words)
}

// GrowInto sets *dst to v widened to a universe of size n (n ≥ v.Len()),
// reusing dst's word storage when it has capacity. Existing bits keep
// their indices; the widened tail is zero. dst must not alias v.
//
//logr:noalloc
func (v Vector) GrowInto(n int, dst *Vector) {
	if n < v.n {
		panic("bitvec: Grow would shrink universe")
	}
	dst.reshape(n)
	copy(dst.words, v.words)
	for i := len(v.words); i < len(dst.words); i++ {
		dst.words[i] = 0
	}
}

// OrInPlace sets v to v ∨ u.
//
//logr:noalloc
func (v Vector) OrInPlace(u Vector) {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	for i := range v.words {
		v.words[i] |= u.words[i]
	}
}

// AndCount returns |v ∧ u|, the popcount of the intersection, without
// allocating. Together with Count it gives a branch-light containment test
// (b ⊆ v iff |b ∧ v| = |b|) that batch counting loops exploit.
//
//logr:noalloc
func (v Vector) AndCount(u Vector) int {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	c := 0
	for i := range v.words {
		c += bits.OnesCount64(v.words[i] & u.words[i])
	}
	return c
}

// XorCount returns |v ⊕ u|, the popcount of the symmetric difference — the
// Hamming distance as a raw word-packed kernel. It is the primitive the
// binary clustering path builds its metrics on: for binary vectors,
// manhattan(v,u) = euclid²(v,u) = XorCount.
//
//logr:noalloc
func (v Vector) XorCount(u Vector) int {
	if v.n != u.n {
		panic("bitvec: universe size mismatch")
	}
	d := 0
	for i := range v.words {
		d += bits.OnesCount64(v.words[i] ^ u.words[i])
	}
	return d
}

// Hamming returns the Hamming distance |{i : v_i ≠ u_i}|.
//
//logr:noalloc
func (v Vector) Hamming(u Vector) int {
	return v.XorCount(u)
}

// AndCountInto writes |v ∧ us[j]| into out[j] for every vector in us — the
// batch form of AndCount, sharing v's words across the whole batch without
// allocating. len(out) must be ≥ len(us).
//
//logr:noalloc
func (v Vector) AndCountInto(us []Vector, out []int) {
	for j, u := range us {
		if v.n != u.n {
			panic("bitvec: universe size mismatch")
		}
		c := 0
		for i := range v.words {
			c += bits.OnesCount64(v.words[i] & u.words[i])
		}
		out[j] = c
	}
}

// AccumulateInto adds w to counts[i] for every set bit i, in ascending index
// order. It is the bit-column accumulator behind weighted centroid updates
// and feature marginals: summing packed vectors column-wise without
// materializing a dense row or allocating an index slice. counts must span
// the vector's universe.
//
//logr:noalloc
func (v Vector) AccumulateInto(counts []float64, w float64) {
	for wi, word := range v.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			counts[wi*wordBits+b] += w
			word &= word - 1
		}
	}
}

// Indices returns the sorted indices of set bits.
func (v Vector) Indices() []int {
	out := make([]int, 0, v.Count())
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			out = append(out, wi*wordBits+b)
			w &= w - 1
		}
	}
	return out
}

// NextSet returns the lowest set index ≥ i, or -1 when there is none. It
// walks the set bits in ascending order without a callback:
//
//	for i := v.NextSet(0); i >= 0; i = v.NextSet(i + 1) { ... }
//
//logr:noalloc
func (v Vector) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	wi := i / wordBits
	if wi >= len(v.words) {
		return -1
	}
	w := v.words[wi] &^ (1<<(uint(i)%wordBits) - 1)
	for w == 0 {
		wi++
		if wi >= len(v.words) {
			return -1
		}
		w = v.words[wi]
	}
	return wi*wordBits + bits.TrailingZeros64(w)
}

// ForEach calls fn for every set bit index in ascending order.
func (v Vector) ForEach(fn func(i int)) {
	for wi, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Key returns a string usable as a map key identifying the exact bit pattern:
// the universe size in decimal, a colon, then each word little-endian.
// Vectors over different universes never collide because the universe size
// is part of the key. It allocates once, the key itself.
func (v Vector) Key() string {
	var buf [20]byte
	n := strconv.AppendInt(buf[:0], int64(v.n), 10)
	var sb strings.Builder
	sb.Grow(len(n) + 1 + 8*len(v.words))
	sb.Write(n)
	sb.WriteByte(':')
	for _, w := range v.words {
		sb.Write(binary.LittleEndian.AppendUint64(buf[:0], w))
	}
	return sb.String()
}

// String renders the vector as a 0/1 string, e.g. "101100".
func (v Vector) String() string {
	var sb strings.Builder
	sb.Grow(v.n)
	for i := 0; i < v.n; i++ {
		if v.Get(i) {
			sb.WriteByte('1')
		} else {
			sb.WriteByte('0')
		}
	}
	return sb.String()
}

// Dense returns the vector as a []float64 of 0s and 1s: the dense
// expansion the equivalence tests of the clustering and compression
// packages hold the packed kernels to.
func (v Vector) Dense() []float64 {
	out := make([]float64, v.n)
	v.ForEach(func(i int) { out[i] = 1 })
	return out
}

// SqDist returns ‖v−c‖² against a dense float row, accumulated coordinate by
// coordinate in ascending index order — bit-identical to computing the same
// two-slice sum over v.Dense(), without materializing it. The binary
// clustering kernels use it wherever exact agreement with the dense float
// path matters more than speed: near-tie resolution, empty-cluster
// re-seeding and final inertia. c must span the vector's universe.
//
//logr:noalloc
func (v Vector) SqDist(c []float64) float64 {
	s := 0.0
	for wi, word := range v.words {
		base := wi * wordBits
		end := base + wordBits
		if end > len(c) {
			end = len(c)
		}
		for j := base; j < end; j++ {
			d := -c[j]
			if word&(1<<uint(j-base)) != 0 {
				d = 1 - c[j]
			}
			s += d * d
		}
	}
	return s
}

// Grow returns a copy of v over a larger universe of size n (n ≥ v.Len());
// existing bits keep their indices.
func (v Vector) Grow(n int) Vector {
	if n < v.n {
		panic("bitvec: Grow would shrink universe")
	}
	out := New(n)
	copy(out.words, v.words)
	return out
}
