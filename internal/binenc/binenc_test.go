package binenc

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestReaderRoundTrip: what the writers and binary.Append* write reads
// back field for field, and the cursor ends at the end of the input.
func TestReaderRoundTrip(t *testing.T) {
	b := binary.AppendUvarint(nil, 300)
	b = AppendString(b, "SELECT 1")
	b = append(b, 7)
	b = binary.LittleEndian.AppendUint32(b, 0xdeadbeef)
	b = binary.LittleEndian.AppendUint64(b, 1<<60+5)
	b = AppendAscending(b, []int{0, 3, 4, 90})
	b = AppendAscending(b, []uint32{2, 1000})

	r := NewReader(b)
	if got := r.Int(300); got != 300 {
		t.Fatalf("Int = %d", got)
	}
	if got := r.Text(); got != "SELECT 1" {
		t.Fatalf("Text = %q", got)
	}
	if got := r.Byte(); got != 7 {
		t.Fatalf("Byte = %d", got)
	}
	if got := r.Uint32(); got != 0xdeadbeef {
		t.Fatalf("Uint32 = %x", got)
	}
	if got := r.Uint64(); got != 1<<60+5 {
		t.Fatalf("Uint64 = %d", got)
	}
	for _, want := range [][]int{{0, 3, 4, 90}, {2, 1000}} {
		var got []int
		r.Ascending(r.Count(1), 1001, func(i int) { got = append(got, i) })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Ascending = %v, want %v", got, want)
		}
	}
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("ends with err %v and %d bytes left", r.Err(), r.Len())
	}
}

// TestReaderRefuses: each read refuses what its bound excludes, the first
// error latches, and every read after it returns a zero value without
// moving the cursor.
func TestReaderRefuses(t *testing.T) {
	for _, tc := range []struct {
		name string
		in   []byte
		read func(r *Reader)
	}{
		{"empty uvarint", nil, func(r *Reader) { r.Int(MaxInt) }},
		{"torn uvarint", []byte{0x80}, func(r *Reader) { r.Int(MaxInt) }},
		{"uvarint past its maximum", uvarints(11), func(r *Reader) { r.Int(10) }},
		{"uvarint past 64 bits", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}, func(r *Reader) { r.Uvarint(^uint64(0)) }},
		{"count past the bytes left", uvarints(3, 1, 2), func(r *Reader) { r.Count(1) }},
		{"count of 2-byte elements", uvarints(2, 1, 1, 1), func(r *Reader) { r.Count(2) }},
		{"huge count", uvarints(1 << 40), func(r *Reader) { r.Count(1) }},
		{"string past the end", append(uvarints(5), "abc"...), func(r *Reader) { r.Text() }},
		{"short word", []byte{1, 2, 3}, func(r *Reader) { r.Uint32() }},
		{"run longer than its universe", uvarints(0, 1, 1), func(r *Reader) { r.Ascending(3, 2, nil) }},
		{"repeated index", uvarints(1, 0), func(r *Reader) { r.Ascending(2, 10, nil) }},
		{"index at the universe", uvarints(4, 6), func(r *Reader) { r.Ascending(2, 10, nil) }},
		{"index past the universe", uvarints(10), func(r *Reader) { r.Ascending(1, 10, nil) }},
		{"delta overflowing int", uvarints(1, 1<<63-1), func(r *Reader) { r.Ascending(2, 10, nil) }},
		{"truncated run", uvarints(1), func(r *Reader) { r.Ascending(2, 10, nil) }},
	} {
		r := NewReader(tc.in)
		tc.read(r)
		if r.Err() == nil {
			t.Errorf("%s: no error", tc.name)
			continue
		}
		first, left := r.Err(), r.Len()
		if r.Int(MaxInt) != 0 || r.Byte() != 0 || r.Text() != "" || r.Uint64() != 0 || r.Next(0) != nil || r.Rest() != nil {
			t.Errorf("%s: a read after the error returned a value", tc.name)
		}
		r.Fail(errors.New("later"))
		if r.Err() != first || r.Len() != left {
			t.Errorf("%s: the error or the position moved after the first error", tc.name)
		}
	}
}

// TestAscendingValidates: with no callback the run is still checked.
func TestAscendingValidates(t *testing.T) {
	r := NewReader(uvarints(0, 5, 5))
	r.Ascending(3, 16, nil)
	if r.Err() != nil || r.Len() != 0 {
		t.Fatalf("a valid run: err %v, %d bytes left", r.Err(), r.Len())
	}
	r = NewReader(uvarints(0, 5, 0))
	r.Ascending(3, 16, nil)
	if r.Err() == nil {
		t.Fatal("a repeated index validated")
	}
}
