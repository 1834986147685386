package workload

import (
	"encoding/binary"
	"errors"
	"fmt"

	"logr/internal/feature"
)

// Encoder state serialization, used by the durable store's checkpoints.
//
// The encoder's state is a function of the entire entry stream ever fed to
// it — the codebook only grows, every distinct SQL string stays cached,
// multiplicities accumulate — so a recovery that wants to replay only the
// WAL tail after a checkpoint must restore the full pipeline state, not
// just the current snapshot. That state has two parts with very different
// lifetimes, and the codec keeps them apart so a checkpoint can write each
// at its own cost:
//
//   - the admissions: both codebooks in index order (indices are
//     load-bearing: every stored vector references them), the
//     canonical-query table in admission order (which pins snapshot vector
//     order) and the raw-SQL parse cache in admission order. All four are
//     append-only, so "everything admitted since a StateMark" is four
//     slice suffixes, and a sequence of such deltas, applied in order to
//     an empty encoder, rebuilds the tables exactly — the full state is
//     just the delta since the zero mark;
//   - the counters: seven running totals plus one multiplicity per
//     canonical query — the only state that is rewritten in place. They
//     are small (O(shapes), not O(statements)) and serialized whole.
//
// Restoring and then feeding the same suffix of entries yields an encoder
// byte-identical, snapshot for snapshot, to one that saw the whole stream.

// encStateVersion guards the layouts below.
const encStateVersion = 2

// StateMark is a position in the encoder's append-only admission tables:
// how many features of each codebook, canonical queries and raw SQL
// strings a serialized delta already covers. The zero mark covers nothing.
type StateMark struct {
	book, withConstBook, canon, raws int
}

// Mark returns the position just past everything admitted so far.
func (e *Encoder) Mark() StateMark {
	return StateMark{
		book:          e.book.Size(),
		withConstBook: e.withConstBook.Size(),
		canon:         len(e.canon),
		raws:          len(e.raws),
	}
}

// AppendAdmissions appends everything admitted after since, in admission
// order, to b. The cost is proportional to the delta, not to the tables.
// The encoding is deterministic, and deltas compose: the bytes for
// (a → b) followed by those for (b → c) restore the same tables as the
// bytes for (a → c).
//
//	nfeat, (kind, text)*          scrubbed codebook
//	nfeat, (kind, text)*          with-constants codebook
//	ncanon, (key, conjunctive, rewritable, nidx, idx-delta*)*
//	nraw, (sql, ref)*             ref: see rawRef
func (e *Encoder) AppendAdmissions(b []byte, since StateMark) []byte {
	b = appendBook(b, e.book, since.book)
	b = appendBook(b, e.withConstBook, since.withConstBook)
	canon := e.canon[since.canon:]
	b = binary.AppendUvarint(b, uint64(len(canon)))
	for i := range canon {
		c := &canon[i]
		b = appendString(b, c.key)
		b = append(b, boolByte(c.conjunctive), boolByte(c.rewritable))
		b = binary.AppendUvarint(b, uint64(len(c.indices)))
		prev := 0
		for _, idx := range c.indices {
			b = binary.AppendUvarint(b, uint64(idx-prev))
			prev = idx
		}
	}
	raws := e.raws[since.raws:]
	b = binary.AppendUvarint(b, uint64(len(raws)))
	for _, sql := range raws {
		b = appendString(b, sql)
		b = binary.AppendUvarint(b, uint64(e.refs[sql]))
	}
	return b
}

// AppendCounters appends the mutable part of the state: the version, the
// maintained counters (the Result-derived stats fields are recomputed from
// the tables and must not be double-restored) and every canonical query's
// multiplicity, in admission order.
func (e *Encoder) AppendCounters(b []byte) []byte {
	b = append(b, encStateVersion)
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
	rest, err := e.RestoreAdmissions(data)
	if err != nil {
		return nil, nil, err
	}
	if rest, err = e.RestoreCounters(rest); err != nil {
		return nil, nil, err
	}
	return e, rest, nil
}

// RestoreAdmissions applies one AppendAdmissions delta to the encoder's
// tables and returns the bytes following it. Deltas must be applied in the
// order they were taken, starting from an empty encoder; a delta that does
// not continue the tables where they stand (a feature landing on the wrong
// index, a repeated key, a reference to a canonical query or feature not
// yet admitted) is an error. On error the encoder is unusable.
func (e *Encoder) RestoreAdmissions(data []byte) ([]byte, error) {
	r := &stateReader{b: data}
	if err := restoreBook(r, e.book); err != nil {
		return nil, err
	}
	if err := restoreBook(r, e.withConstBook); err != nil {
		return nil, err
	}
	universe := e.book.Size()
	for n := r.count(4); n > 0 && r.err == nil; n-- {
		c := canonical{key: r.string()}
		c.conjunctive = r.byte() != 0
		c.rewritable = r.byte() != 0
		nidx := r.count(1)
		c.indices = make([]int, 0, nidx)
		prev := 0
		for j := 0; j < nidx && r.err == nil; j++ {
			if prev += r.int(); prev >= universe {
				return nil, errors.New("workload: encoder state references a feature out of range")
			}
			c.indices = append(c.indices, prev)
		}
		if r.err != nil {
			break
		}
		if _, dup := e.canonIdx[c.key]; dup {
			return nil, errors.New("workload: encoder state repeats a canonical query")
		}
		e.canonIdx[c.key] = uint32(len(e.canon))
		e.canon = append(e.canon, c)
	}
	for n := r.count(2); n > 0 && r.err == nil; n-- {
		sql := r.string()
		ref := r.int()
		if r.err != nil {
			break
		}
		if _, dup := e.refs[sql]; dup || ref >= int(refCanon)+len(e.canon) {
			return nil, errors.New("workload: encoder state repeats a statement or references a canonical query out of range")
		}
		e.refs[sql] = rawRef(ref)
		e.raws = append(e.raws, sql)
	}
	if r.err != nil {
		return nil, r.err
	}
	e.snapshot = nil
	return r.b, nil
}

// RestoreCounters applies AppendCounters output on top of the restored
// admission tables and returns the bytes following it. Counters taken at a
// different table size than the encoder now holds — a delta missing or one
// too many — are an error.
func (e *Encoder) RestoreCounters(data []byte) ([]byte, error) {
	r := &stateReader{b: data}
	if v := r.byte(); r.err == nil && v != encStateVersion {
		return nil, fmt.Errorf("workload: unsupported encoder state version %d", v)
	}
	e.stats.TotalQueries = r.int()
	e.stats.Queries = r.int()
	e.stats.StoredProcedures = r.int()
	e.stats.Unparseable = r.int()
	e.stats.DistinctQueries = r.int()
	e.featSum = r.int()
	e.encodedN = r.int()
	ncanon := r.int()
	if r.err == nil && (ncanon != len(e.canon) || e.stats.DistinctQueries != len(e.raws)) {
		return nil, fmt.Errorf("workload: encoder counters cover %d canonical queries and %d statements, the admission tables hold %d and %d",
			ncanon, e.stats.DistinctQueries, len(e.canon), len(e.raws))
	}
	for i := 0; i < ncanon && r.err == nil; i++ {
		e.canon[i].count = r.int()
	}
	if r.err != nil {
		return nil, r.err
	}
	e.snapshot = nil
	return r.b, nil
}

// appendBook serializes the features with index ≥ from.
func appendBook(b []byte, book *feature.Codebook, from int) []byte {
	size := book.Size()
	b = binary.AppendUvarint(b, uint64(size-from))
	for i := from; i < size; i++ {
		f := book.Feature(i)
		b = binary.AppendUvarint(b, uint64(f.Kind))
		b = appendString(b, f.Text)
	}
	return b
}

// restoreBook registers a serialized run of features, which must land on
// the indices following the ones the book already holds.
func restoreBook(r *stateReader, book *feature.Codebook) error {
	next := book.Size()
	for n := r.count(2); n > 0 && r.err == nil; n-- {
		f := feature.Feature{Kind: feature.Kind(r.int()), Text: r.string()}
		if r.err != nil {
			break
		}
		if got := book.Register(f); got != next {
			return fmt.Errorf("workload: codebook restore assigned index %d to feature %d", got, next)
		}
		next++
	}
	return r.err
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// stateReader is a cursor over a state blob that latches the first decode
// error, so restore loops stay linear instead of error-checking every
// field.
type stateReader struct {
	b   []byte
	err error
}

func (r *stateReader) fail() {
	if r.err == nil {
		r.err = errors.New("workload: truncated or corrupt encoder state")
	}
}

func (r *stateReader) int() int {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 || v > 1<<62 {
		r.fail()
		return 0
	}
	r.b = r.b[n:]
	return int(v)
}

// count reads an element count, rejecting one the remaining bytes cannot
// hold at min bytes per element — so a corrupt count cannot drive a huge
// allocation or a long loop of failing reads.
func (r *stateReader) count(min int) int {
	n := r.int()
	if r.err == nil && n > len(r.b)/min {
		r.fail()
		return 0
	}
	return n
}

func (r *stateReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *stateReader) string() string {
	n := r.int()
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.fail()
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}
