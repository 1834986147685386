package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"testing"

	"logr/internal/workload"
)

// fuzzCheckpoint is a real checkpoint — three admission frames under one
// head, segments, boundary and active tail all live — for the fuzz targets
// to mutate. It is kept to a couple of kilobytes: the fuzzing engine
// minimizes every input that reaches new coverage, and on a large seed
// that is where it spends its time.
func fuzzCheckpoint() (head, log []byte, opts Options) {
	opts = Options{SealThreshold: 25, CompactMinQueries: 10}
	s := New(opts)
	var adm admission
	for i := 0; i < 3; i++ {
		s.Append(streamEntries(10, i*19))
		s.Append([]workload.LogEntry{{SQL: "CALL refresh_all()"}, {SQL: "%not sql"}})
		head, log, adm = checkpointImage(int64(1000*i), s, adm, log)
	}
	return head, log, opts
}

// FuzzCheckpointHead feeds the head decoder arbitrary bytes under a valid
// CRC trailer (a random trailer would stop nearly every input at the CRC
// check), over the admission log the seed head belongs to. Whatever
// the bytes, decoding must return a store or an error — no panic, no
// allocation driven by a corrupt count — and a store it does return must
// hold together well enough to snapshot, with canonical multiplicities
// that add up to its query and feature totals.
func FuzzCheckpointHead(f *testing.F) {
	head, log, opts := fuzzCheckpoint()
	f.Add(head[:len(head)-4])
	f.Add([]byte(ckptMagic))
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(body[:len(body):len(body)], crc32.ChecksumIEEE(body))
		off, adm, state, err := decodeHead(data)
		if err != nil {
			return
		}
		if off < 0 || adm.len < 0 {
			t.Fatalf("decodeHead accepted a negative offset: off=%d admLen=%d", off, adm.len)
		}
		// the state section restores onto the tables of the seed's own log,
		// whatever the mutated head now claims about that log
		enc := workload.NewEncoder(opts.Encode)
		whole := admission{len: int64(len(log)), crc: crc32.ChecksumIEEE(log)}
		if err := readAdmissions(bytes.NewReader(log), whole, enc); err != nil {
			t.Fatalf("the seed admission log stopped restoring: %v", err)
		}
		mem, err := restoreState(state, enc, opts)
		if err != nil {
			return
		}
		mem.Segments()
		res := mem.Snapshot()
		queries, feats := 0, 0
		for i := 0; i < res.Log.Distinct(); i++ {
			queries += res.Log.Multiplicity(i)
			feats += res.Log.Vector(i).Count() * res.Log.Multiplicity(i)
		}
		if queries != res.Stats.Queries || queries != mem.TotalQueries() || queries != res.Log.Total() {
			t.Fatalf("multiplicities sum to %d, the store counts %d SELECT and %d encoded queries", queries, res.Stats.Queries, mem.TotalQueries())
		}
		if queries > 0 && float64(feats)/float64(queries) != res.Stats.AvgFeaturesPerQuery {
			t.Fatalf("multiplicities weight to %d features over %d queries, the store averages %v", feats, queries, res.Stats.AvgFeaturesPerQuery)
		}
	})
}

// FuzzAdmissionLog feeds the admission-log decoder arbitrary bytes with a
// head that vouches for all of them, read in the current layout and in
// version 2's. Restoring must fail cleanly or yield tables a snapshot can
// be built from: every canonical query's feature indices inside the
// codebook, every version-2 statement's reference inside the canonical
// table, no statement hash twice.
func FuzzAdmissionLog(f *testing.F) {
	_, log, opts := fuzzCheckpoint()
	f.Add(log)
	f.Add(log[:len(log)/2])
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, legacy := range []bool{false, true} {
			enc := workload.NewEncoder(opts.Encode)
			adm := admission{len: int64(len(data)), crc: crc32.ChecksumIEEE(data), legacy: legacy}
			if readAdmissions(bytes.NewReader(data), adm, enc) != nil {
				continue
			}
			res := enc.Result()
			if res.Log.Universe() != res.Book.Size() {
				t.Fatalf("snapshot universe %d, codebook %d", res.Log.Universe(), res.Book.Size())
			}
			// a restored table serializes back, in the current layout, to a
			// log that restores the same
			again := workload.NewEncoder(opts.Encode)
			if _, err := again.RestoreAdmissions(enc.AppendAdmissions(nil, workload.StateMark{}), workload.StateVersion); err != nil {
				t.Fatalf("re-serialized admissions do not restore: %v", err)
			}
			if again.Mark() != enc.Mark() {
				t.Fatalf("re-serialized admissions restore to %+v, want %+v", again.Mark(), enc.Mark())
			}
		}
	})
}
