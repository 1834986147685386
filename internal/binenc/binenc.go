// Package binenc is the cursor every binary format of the system decodes
// through — LGRS summaries, the checkpoint's state section and
// admission-log frames, segment sub-logs and WAL records — with the
// writers of the two layouts it reads beyond plain uvarints and
// little-endian words: length-prefixed strings and delta-coded ascending
// index runs.
//
// A Reader latches its first error: once a read fails every later read
// returns a zero value, so a decoder reads field after field and checks
// Err once. It also bounds what a corrupt input can make a decoder do:
// every uvarint is read under a caller-given maximum, and an element count
// is refused when the bytes left cannot hold that many elements, so no
// count can size an allocation or a loop beyond the input's length.
package binenc

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// MaxInt bounds a field that sizes nothing, such as a query total: far
// above any count the system keeps, far below where int(v), or a sum of a
// few such fields, overflows.
const MaxInt = 1 << 62

// ErrTruncated is the error of a read past the end of the input or of a
// torn uvarint.
var ErrTruncated = errors.New("binenc: truncated input")

// Reader is a cursor over an encoded byte string.
type Reader struct {
	b   []byte
	err error
}

// NewReader returns a cursor at the start of b. Slices it returns alias b.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Err returns the first error a read met, or the one Fail latched.
func (r *Reader) Err() error { return r.err }

// Fail latches err unless an error is already latched: a decoder reports a
// semantic fault through the same path as a truncation.
func (r *Reader) Fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

// Len returns the number of bytes left.
func (r *Reader) Len() int { return len(r.b) }

// Rest returns the bytes left, nil after an error.
func (r *Reader) Rest() []byte {
	if r.err != nil {
		return nil
	}
	return r.b
}

// Uvarint reads a uvarint, failing on one above max.
func (r *Reader) Uvarint(max uint64) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = ErrTruncated
		return 0
	}
	if v > max {
		r.err = fmt.Errorf("binenc: value %d exceeds %d", v, max)
		return 0
	}
	r.b = r.b[n:]
	return v
}

// Int reads a uvarint no larger than max, which must not be negative.
func (r *Reader) Int(max int) int { return int(r.Uvarint(uint64(max))) }

// Count reads an element count, failing on one the bytes left cannot hold
// at min (≥ 1) bytes an element.
func (r *Reader) Count(min int) int {
	n := r.Int(math.MaxInt)
	if r.err == nil && n > len(r.b)/min {
		r.err = fmt.Errorf("binenc: %d elements do not fit in %d bytes", n, len(r.b))
		return 0
	}
	return n
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if b := r.Next(1); b != nil {
		return b[0]
	}
	return 0
}

// Next reads the next n bytes, aliasing the input; nil on failure.
func (r *Reader) Next(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n > len(r.b) {
		r.err = ErrTruncated
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Uint32 reads a little-endian 32-bit word.
func (r *Reader) Uint32() uint32 {
	if b := r.Next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

// Uint64 reads a little-endian 64-bit word.
func (r *Reader) Uint64() uint64 {
	if b := r.Next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// Text reads a string in AppendString's layout into a new string.
func (r *Reader) Text() string { return string(r.Next(r.Count(1))) }

// Ascending reads the n deltas of an index run in AppendAscending's layout
// (its count read by the caller, who may size storage by it first) and
// hands each index to each, which may be nil to validate only. The indices
// must ascend strictly, from 0 up, and stay below universe: a zero delta
// after the first, or an index at or past universe, fails.
func (r *Reader) Ascending(n, universe int, each func(int)) {
	if r.err == nil && n > universe {
		r.err = fmt.Errorf("binenc: a run of %d indices below %d", n, universe)
	}
	at := 0
	for j := 0; j < n && r.err == nil; j++ {
		d := r.Int(math.MaxInt)
		switch {
		case r.err != nil:
		case j > 0 && d == 0 || d >= universe-at:
			r.err = fmt.Errorf("binenc: index delta %d after %d in a run below %d", d, at, universe)
		default:
			at += d
			if each != nil {
				each(at)
			}
		}
	}
}

// AppendString appends s as its length (uvarint) and bytes.
func AppendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// AppendAscending appends a strictly ascending index run: its length, then
// each index's difference from the one before it (the first from 0), all
// uvarints.
func AppendAscending[T ~int | ~uint32](b []byte, idx []T) []byte {
	b = binary.AppendUvarint(b, uint64(len(idx)))
	prev := T(0)
	for _, i := range idx {
		b = binary.AppendUvarint(b, uint64(i-prev))
		prev = i
	}
	return b
}
