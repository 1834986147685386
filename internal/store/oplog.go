package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"logr/internal/binenc"
	"logr/internal/core"
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
	b = binary.AppendUvarint(b, uint64(len(entries)))
	for _, e := range entries {
		b = binary.AppendUvarint(b, uint64(max(e.Count, 1)))
		b = binenc.AppendString(b, e.SQL)
	}
	return b
}

func encodeSealOp() []byte { return []byte{opSeal} }

func encodeDropOp(id int) []byte {
	return binary.AppendUvarint([]byte{opDrop}, uint64(id))
}

func encodeCompactOp(minQueries int) []byte {
	return binary.AppendUvarint([]byte{opCompact}, uint64(minQueries))
}

// decodeOp parses one WAL payload. The payload already passed the WAL's
// CRC, so a decode failure means a codec bug or memory corruption — the
// caller treats it as fatal rather than as a torn tail. What the encoders
// never write is refused: an entry count of 0 (they clamp counts to at
// least 1), a count past core.MaxCount (ingest refuses a batch past it
// before logging it), bytes after the op. An op's argument is read back as
// the int it was written from, negative ones included.
func decodeOp(p []byte) (walOp, error) {
	r := binenc.NewReader(p)
	op := walOp{kind: r.Byte()}
	switch op.kind {
	case opEntries:
		// an entry takes at least two bytes
		op.entries = make([]workload.LogEntry, r.Count(2))
		for i := range op.entries {
			e := &op.entries[i]
			if e.Count = r.Int(core.MaxCount); e.Count == 0 {
				r.Fail(errors.New("an entry of count 0"))
			}
			e.SQL = r.Text()
		}
	case opSeal:
	case opDrop, opCompact:
		op.arg = int(r.Uvarint(math.MaxUint64))
	default:
		r.Fail(fmt.Errorf("unknown op %d", op.kind))
	}
	if r.Err() == nil && r.Len() != 0 {
		r.Fail(errors.New("trailing bytes"))
	}
	if err := r.Err(); err != nil {
		return walOp{}, fmt.Errorf("store: WAL record: %w", err)
	}
	return op, nil
}

// applyOp applies one operation to mem, live or replayed — the applier and
// recovery share it, so they cannot diverge. Replay runs it on a plain
// in-memory store built with the store's real operating Options: its
// automatic seal/compact triggers re-fire during replay exactly as they
// fired live, which is why the WAL only records caller-initiated
// operations.
func applyOp(mem *Store, op walOp) (res applyResult, err error) {
	switch op.kind {
	case opEntries:
		err = mem.Append(op.entries)
	case opSeal:
		res.meta, res.ok = mem.Seal()
	case opDrop:
		res.n = mem.DropBefore(op.arg)
	case opCompact:
		res.n = mem.Compact(op.arg)
	default:
		err = fmt.Errorf("store: unknown WAL op %d", op.kind)
	}
	return res, err
}
