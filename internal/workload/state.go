package workload

import (
	"encoding/binary"
	"errors"
	"fmt"

	"logr/internal/binenc"
	"logr/internal/feature"
)

// Encoder state serialization, used by the durable store's checkpoints.
//
// The encoder's state is a function of the entire entry stream ever fed to
// it — the codebook only grows, every distinct raw statement stays counted,
// multiplicities accumulate — so a recovery that wants to replay only the
// WAL tail after a checkpoint must restore the full pipeline state, not
// just the current snapshot. That state has two parts with very different
// lifetimes, and the codec keeps them apart so a checkpoint can write each
// at its own cost:
//
//   - the admissions: the codebook in index order (indices are
//     load-bearing: every stored vector references them), the
//     canonical-query table in admission order (which pins snapshot vector
//     order) and the raw statements' hashes in admission order. All three
//     are append-only, so "everything admitted since a StateMark" is three
//     slice suffixes, and a sequence of such deltas, applied in order to
//     an empty encoder, rebuilds the tables exactly — the full state is
//     just the delta since the zero mark;
//   - the counters: seven running totals plus one multiplicity per
//     canonical query — the only state that is rewritten in place. They
//     are small (O(shapes), not O(statements)) and serialized whole.
//
// The memo tables (fingerprints, recent raw statements) are not state: a
// restored encoder refills them from the stream. Restoring and then feeding
// the same suffix of entries yields an encoder byte-identical, snapshot for
// snapshot, to one that saw the whole stream.

// StateVersion is the layout AppendAdmissions and AppendCounters write.
// Version 2 also carried a with-constants codebook and every raw statement
// with its outcome; RestoreAdmissions still reads it, hashing the
// statements and skipping that codebook.
const StateVersion = 3

// StateMark is a position in the encoder's append-only admission tables:
// how many features, canonical queries and raw-statement hashes a
// serialized delta already covers. The zero mark covers nothing.
type StateMark struct {
	book, canon, hashes int
}

// Mark returns the position just past everything admitted so far.
func (e *Encoder) Mark() StateMark {
	return StateMark{book: e.book.Size(), canon: len(e.canon), hashes: e.rawHashes.len()}
}

// AppendAdmissions appends everything admitted after since, in admission
// order, to b. The cost is proportional to the delta, not to the tables.
// The encoding is deterministic, and deltas compose: the bytes for
// (a → b) followed by those for (b → c) restore the same tables as the
// bytes for (a → c).
//
//	codebook section              feature.Codebook.AppendSection
//	ncanon, (key, conjunctive, rewritable, index run)*
//	nraw, hash u64le*             raw statements' hashes
func (e *Encoder) AppendAdmissions(b []byte, since StateMark) []byte {
	b = e.book.AppendSection(b, since.book, e.book.Size())
	canon := e.canon[since.canon:]
	b = binary.AppendUvarint(b, uint64(len(canon)))
	for i := range canon {
		c := &canon[i]
		b = binenc.AppendString(b, c.key)
		b = append(b, boolByte(c.conjunctive), boolByte(c.rewritable))
		b = binenc.AppendAscending(b, c.indices)
	}
	b = binary.AppendUvarint(b, uint64(e.rawHashes.len()-since.hashes))
	for j := since.hashes; j < e.rawHashes.len(); j++ {
		b = binary.LittleEndian.AppendUint64(b, e.rawHashes.at(j))
	}
	return b
}

// AppendCounters appends the mutable part of the state: the version, the
// maintained counters (the Result-derived stats fields are recomputed from
// the tables and must not be double-restored) and every canonical query's
// multiplicity, in admission order.
func (e *Encoder) AppendCounters(b []byte) []byte {
	b = append(b, StateVersion)
	b = binary.AppendUvarint(b, uint64(e.stats.TotalQueries))
	b = binary.AppendUvarint(b, uint64(e.stats.Queries))
	b = binary.AppendUvarint(b, uint64(e.stats.StoredProcedures))
	b = binary.AppendUvarint(b, uint64(e.stats.Unparseable))
	b = binary.AppendUvarint(b, uint64(e.stats.DistinctQueries))
	b = binary.AppendUvarint(b, uint64(e.featSum))
	b = binary.AppendUvarint(b, uint64(e.encodedN))
	b = binary.AppendUvarint(b, uint64(len(e.canon)))
	for i := range e.canon {
		b = binary.AppendUvarint(b, uint64(e.canon[i].count))
	}
	return b
}

// AppendState appends the encoder's full serialized state to b and returns
// the extended slice: the admissions since the zero mark, then the
// counters.
func (e *Encoder) AppendState(b []byte) []byte {
	return e.AppendCounters(e.AppendAdmissions(b, StateMark{}))
}

// RestoreEncoder rebuilds an encoder from AppendState output, returning
// the bytes following the state blob. Feeding the restored encoder the
// entries appended after the state was taken reproduces the original
// exactly.
func RestoreEncoder(opts EncodeOptions, data []byte) (*Encoder, []byte, error) {
	e := NewEncoder(opts)
	rest, err := e.RestoreAdmissions(data, StateVersion)
	if err != nil {
		return nil, nil, err
	}
	if rest, err = e.RestoreCounters(rest); err != nil {
		return nil, nil, err
	}
	return e, rest, nil
}

// RestoreAdmissions applies one AppendAdmissions delta, written in layout
// version (2 or 3), to the encoder's tables and returns the bytes following
// it. Deltas must be applied in the order they were taken, starting from an
// empty encoder; a delta that does not continue the tables where they stand
// (a feature landing on the wrong index, a repeated key or statement, a
// reference to a canonical query or feature not yet admitted) is an error.
// On error the encoder is unusable.
func (e *Encoder) RestoreAdmissions(data []byte, version byte) ([]byte, error) {
	if version != 2 && version != StateVersion {
		return nil, fmt.Errorf("workload: unsupported encoder state version %d", version)
	}
	r := binenc.NewReader(data)
	e.book.ReadSection(r)
	if version == 2 {
		// the with-constants codebook: Table 1's offline pass recomputes it
		feature.NewCodebook(e.opts.Scheme).ReadSection(r)
	}
	universe := e.book.Size()
	for n := r.Count(4); n > 0 && r.Err() == nil; n-- {
		c := canonical{key: r.Text(), conjunctive: r.Byte() != 0, rewritable: r.Byte() != 0}
		c.indices = make([]int, 0, r.Count(1))
		r.Ascending(cap(c.indices), universe, func(i int) { c.indices = append(c.indices, i) })
		switch _, dup := e.canonIdx[c.key]; {
		case r.Err() != nil:
		case dup:
			r.Fail(errors.New("repeats a canonical query"))
		default:
			e.canonIdx[c.key] = uint32(len(e.canon))
			e.canon = append(e.canon, c)
		}
	}
	if version == 2 {
		// (sql, ref)*: the statements themselves, hashed on the way in
		for n := r.Count(2); n > 0 && r.Err() == nil; n-- {
			sql := r.Next(r.Count(1))
			ref := r.Int(binenc.MaxInt)
			if r.Err() == nil && (ref >= int(refCanon)+len(e.canon) || !e.rawHashes.add(hashRaw(sql))) {
				r.Fail(errRepeatedStatement)
			}
		}
	} else if !e.rawHashes.addAll(r.Next(8 * r.Count(8))) {
		r.Fail(errRepeatedStatement)
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("workload: encoder state: %w", err)
	}
	e.snapshot = nil
	return r.Rest(), nil
}

var errRepeatedStatement = errors.New("repeats a statement or references a canonical query out of range")

// RestoreCounters applies AppendCounters output on top of the restored
// admission tables and returns the bytes following it. Counters taken at a
// different table size than the encoder now holds — a delta missing or one
// too many — are an error, and so are multiplicities that disagree with the
// totals: every encoded query is one canonical query's, so the
// multiplicities sum to the encoded and SELECT totals, and weighted by the
// canonical queries' feature counts to the feature total.
func (e *Encoder) RestoreCounters(data []byte) ([]byte, error) {
	r := binenc.NewReader(data)
	if v := r.Byte(); r.Err() == nil && v != 2 && v != StateVersion {
		return nil, fmt.Errorf("workload: unsupported encoder state version %d", v)
	}
	for _, f := range []*int{&e.stats.TotalQueries, &e.stats.Queries, &e.stats.StoredProcedures,
		&e.stats.Unparseable, &e.stats.DistinctQueries, &e.featSum, &e.encodedN} {
		*f = r.Int(binenc.MaxInt)
	}
	ncanon := r.Int(binenc.MaxInt)
	if r.Err() == nil && (ncanon != len(e.canon) || e.stats.DistinctQueries != e.rawHashes.len()) {
		return nil, fmt.Errorf("workload: encoder counters cover %d canonical queries and %d statements, the admission tables hold %d and %d",
			ncanon, e.stats.DistinctQueries, len(e.canon), e.rawHashes.len())
	}
	queries, feats := 0, 0
	for i := 0; i < ncanon && r.Err() == nil; i++ {
		c := &e.canon[i]
		c.count = r.Int(binenc.MaxInt)
		queries += c.count
		feats += len(c.indices) * c.count
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("workload: encoder counters: %w", err)
	}
	if queries != e.encodedN || queries != e.stats.Queries || feats != e.featSum {
		return nil, fmt.Errorf("workload: canonical multiplicities sum to %d queries and %d features, the counters record %d encoded, %d SELECT queries and %d features",
			queries, feats, e.encodedN, e.stats.Queries, e.featSum)
	}
	e.snapshot = nil
	return r.Rest(), nil
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}
