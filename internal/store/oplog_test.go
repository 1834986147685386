package store

import (
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"

	"logr/internal/core"
	"logr/internal/workload"
)

// encodeOp is the payload the store logs for op.
func encodeOp(op walOp) []byte {
	switch op.kind {
	case opEntries:
		return encodeEntriesOp(op.entries)
	case opSeal:
		return encodeSealOp()
	case opDrop:
		return encodeDropOp(op.arg)
	default:
		return encodeCompactOp(op.arg)
	}
}

// TestDecodeOpRefusesOversizedCount: a record whose entry count the
// payload cannot hold is refused before it sizes an allocation, as are the
// other fields no encoder writes.
func TestDecodeOpRefusesOversizedCount(t *testing.T) {
	uv := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	for _, tc := range []struct {
		name string
		p    []byte
	}{
		{"entry count 2^40", uv([]byte{opEntries}, 1<<40)},
		{"entry count past the payload", uv([]byte{opEntries}, 3, 1, 0)},
		{"SQL length past the payload", append(uv([]byte{opEntries}, 1, 1, 1<<40), "SELECT"...)},
		{"an entry of count 0", append(uv([]byte{opEntries}, 1, 0, 1), 'x')},
		{"an entry count past the cap", append(uv([]byte{opEntries}, 1, core.MaxCount+1, 1), 'x')},
		{"trailing bytes", append(encodeSealOp(), 0)},
		{"a torn argument", []byte{opDrop, 0x80}},
		{"an unknown op", []byte{9}},
		{"an empty record", nil},
	} {
		if op, err := decodeOp(tc.p); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", tc.name, op)
		}
	}
	// the bounds stop short of anything the encoders write
	for _, op := range []walOp{
		{kind: opEntries, entries: []workload.LogEntry{{SQL: "SELECT a FROM t", Count: core.MaxCount}, {SQL: "", Count: 1}}},
		{kind: opDrop, arg: -3},
		{kind: opCompact, arg: 1 << 62},
		{kind: opSeal},
	} {
		if got, err := decodeOp(encodeOp(op)); err != nil || !reflect.DeepEqual(got, op) {
			t.Errorf("%+v decodes to %+v (err %v)", op, got, err)
		}
	}
}

// FuzzDecodeOp: decodeOp never panics, allocates at most a fixed multiple
// of the payload's size (an entry takes two payload bytes and a
// workload.LogEntry 24, plus its SQL), and an op it accepts survives
// encode → decode unchanged.
func FuzzDecodeOp(f *testing.F) {
	f.Add(encodeEntriesOp(streamEntries(5, 3)))
	f.Add(encodeEntriesOp([]workload.LogEntry{{SQL: "CALL refresh()", Count: 7}, {SQL: "%not sql"}}))
	f.Add(encodeSealOp())
	f.Add(encodeDropOp(4))
	f.Add(encodeCompactOp(-1))
	f.Add(binary.AppendUvarint([]byte{opEntries}, 1<<40))
	f.Fuzz(func(t *testing.T, p []byte) {
		// the fuzzing engine allocates beside the target, so the least of
		// three measurements is the decoder's own
		alloc := ^uint64(0)
		for i := 0; i < 3; i++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			decodeOp(p)
			runtime.ReadMemStats(&after)
			alloc = min(alloc, after.TotalAlloc-before.TotalAlloc)
		}
		if alloc > uint64(16*len(p)+1<<12) {
			t.Fatalf("decoding %d bytes allocated %d", len(p), alloc)
		}
		op, err := decodeOp(p)
		if err != nil {
			return
		}
		again, err := decodeOp(encodeOp(op))
		if err != nil {
			t.Fatalf("%+v: its own encoding does not decode: %v", op, err)
		}
		if !reflect.DeepEqual(again, op) {
			t.Fatalf("%+v re-decodes to %+v", op, again)
		}
	})
}
