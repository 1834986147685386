package store

import (
	"encoding/binary"
	"fmt"

	"logr/internal/workload"
)

// The WAL payload codec. Every *caller-initiated* mutation becomes exactly
// one WAL record, appended before the operation is applied in memory:
// entry batches (in bounded windows), explicit seals, retention, and
// explicit compaction. Automatic seals and compactions are deliberately
// NOT logged — replay applies the records to a store built with the same
// Options, whose live triggers re-fire at exactly the points they fired
// originally, so the replayed call sequence is literally the sequence the
// pre-crash store executed and recovery reproduces its state bit for bit.
// (Logging auto-ops as well would double-apply them on replay; exact
// pre-crash equivalence requires reopening with the same Options — see
// Open.)
//
// A payload is one op byte followed by op-specific uvarint/byte fields; the
// WAL layer adds the length prefix and CRC framing.

const (
	// opEntries is a batch of raw entries appended to the active buffer:
	// n, then n × (count, sqlLen, sql bytes).
	opEntries byte = 1
	// opSeal freezes the active buffer into a segment (no fields).
	opSeal byte = 2
	// opDrop is DropBefore(id): one uvarint field.
	opDrop byte = 3
	// opCompact is Compact(minQueries): one uvarint field.
	opCompact byte = 4
)

// walOp is one decoded WAL record.
type walOp struct {
	kind    byte
	entries []workload.LogEntry // opEntries
	arg     int                 // opDrop id / opCompact minQueries
}

//logr:noalloc
func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// encodeEntriesOp frames an entry batch. Non-positive counts are clamped to
// 1 here so the durable record and the in-memory encoder agree on the
// multiplicity that was actually ingested.
func encodeEntriesOp(entries []workload.LogEntry) []byte {
	return encodeEntriesOpInto(nil, entries)
}

// encodeEntriesOpInto is encodeEntriesOp appending into buf[:0], so the
// ingest hot path can recycle record buffers instead of allocating ~150 KiB
// per window. The WAL copies payloads before AppendBatch returns, which is
// what makes the recycling safe.
//
//logr:noalloc
func encodeEntriesOpInto(buf []byte, entries []workload.LogEntry) []byte {
	size := 1 + binary.MaxVarintLen64
	for _, e := range entries {
		size += 2*binary.MaxVarintLen64 + len(e.SQL)
	}
	if cap(buf) < size {
		buf = make([]byte, 0, size) //logr:allow(noalloc) record-buffer capacity growth, amortizes to zero across pool reuses
	}
	b := append(buf[:0], opEntries)
	b = appendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		c := e.Count
		if c <= 0 {
			c = 1
		}
		b = appendUvarint(b, uint64(c))
		b = appendUvarint(b, uint64(len(e.SQL)))
		b = append(b, e.SQL...)
	}
	return b
}

func encodeSealOp() []byte { return []byte{opSeal} }

func encodeDropOp(id int) []byte {
	return appendUvarint([]byte{opDrop}, uint64(id))
}

func encodeCompactOp(minQueries int) []byte {
	return appendUvarint([]byte{opCompact}, uint64(minQueries))
}

// decodeOp parses one WAL payload. The payload already passed the WAL's
// CRC, so a decode failure means a codec bug or memory corruption — the
// caller treats it as fatal rather than as a torn tail.
func decodeOp(p []byte) (walOp, error) {
	if len(p) == 0 {
		return walOp{}, fmt.Errorf("store: empty WAL record")
	}
	kind, body := p[0], p[1:]
	readUvarint := func() (int, error) {
		v, n := binary.Uvarint(body)
		if n <= 0 {
			return 0, fmt.Errorf("store: truncated uvarint in WAL record")
		}
		body = body[n:]
		return int(v), nil
	}
	switch kind {
	case opEntries:
		n, err := readUvarint()
		if err != nil {
			return walOp{}, err
		}
		entries := make([]workload.LogEntry, 0, n)
		for i := 0; i < n; i++ {
			count, err := readUvarint()
			if err != nil {
				return walOp{}, err
			}
			slen, err := readUvarint()
			if err != nil {
				return walOp{}, err
			}
			if slen > len(body) {
				return walOp{}, fmt.Errorf("store: truncated SQL in WAL record")
			}
			entries = append(entries, workload.LogEntry{SQL: string(body[:slen]), Count: count})
			body = body[slen:]
		}
		return walOp{kind: opEntries, entries: entries}, nil
	case opSeal:
		return walOp{kind: opSeal}, nil
	case opDrop, opCompact:
		arg, err := readUvarint()
		if err != nil {
			return walOp{}, err
		}
		return walOp{kind: kind, arg: arg}, nil
	}
	return walOp{}, fmt.Errorf("store: unknown WAL op %d", kind)
}

// applyOp replays one decoded operation into a plain in-memory store built
// with the store's real operating Options — its automatic seal/compact
// triggers re-fire during replay exactly as they fired live, which is why
// the WAL only records caller-initiated operations.
func applyOp(mem *Store, op walOp) error {
	switch op.kind {
	case opEntries:
		return mem.Append(op.entries)
	case opSeal:
		mem.Seal()
	case opDrop:
		mem.DropBefore(op.arg)
	case opCompact:
		mem.Compact(op.arg)
	default:
		return fmt.Errorf("store: unknown WAL op %d", op.kind)
	}
	return nil
}
