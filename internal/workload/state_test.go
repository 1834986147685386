package workload

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// stateTestEntries mixes parseable selects (some conjunctive, some
// union-rewritable), stored procedures and garbage, with duplicates.
func stateTestEntries(n, offset int) []LogEntry {
	entries := make([]LogEntry, 0, n)
	for i := 0; i < n; i++ {
		k := i + offset
		switch k % 5 {
		case 0:
			entries = append(entries, LogEntry{SQL: fmt.Sprintf("SELECT a, b FROM t%d WHERE a = %d", k%7, k%3), Count: 1 + k%4})
		case 1:
			entries = append(entries, LogEntry{SQL: fmt.Sprintf("SELECT x FROM u WHERE x = %d OR x = %d", k%5, k%9)})
		case 2:
			entries = append(entries, LogEntry{SQL: "SELECT a, b FROM t0 WHERE a = 0", Count: 2}) // heavy duplicate
		case 3:
			entries = append(entries, LogEntry{SQL: fmt.Sprintf("CALL do_thing(%d)", k%3)})
		default:
			entries = append(entries, LogEntry{SQL: fmt.Sprintf("%%garbage %d", k%6)})
		}
	}
	return entries
}

// TestEncoderStateRoundTrip: restoring serialized state and feeding the
// stream's suffix must reproduce an encoder identical to one that saw the
// whole stream — same stats, same codebooks, same snapshot log.
func TestEncoderStateRoundTrip(t *testing.T) {
	opts := EncodeOptions{}
	full := NewEncoder(opts)
	partial := NewEncoder(opts)
	prefix := stateTestEntries(150, 0)
	suffix := stateTestEntries(150, 37) // overlaps the prefix: replays + new admits
	full.AddBatch(prefix)
	partial.AddBatch(prefix)

	state := partial.AppendState(nil)
	// determinism: re-serializing the same state yields the same bytes
	if again := partial.AppendState(nil); !reflect.DeepEqual(state, again) {
		t.Fatal("AppendState is not deterministic")
	}
	restored, rest, err := RestoreEncoder(opts, append(state, 0xAA, 0xBB))
	if err != nil {
		t.Fatalf("RestoreEncoder: %v", err)
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("RestoreEncoder consumed the wrong byte count; rest=%v", rest)
	}

	full.AddBatch(suffix)
	restored.AddBatch(suffix)

	fr, rr := full.Result(), restored.Result()
	if fr.Stats != rr.Stats {
		t.Fatalf("stats diverge:\nfull:     %+v\nrestored: %+v", fr.Stats, rr.Stats)
	}
	if fr.Epoch != rr.Epoch {
		t.Fatalf("epoch diverges: full %+v restored %+v", fr.Epoch, rr.Epoch)
	}
	if !reflect.DeepEqual(fr.Book.Features(), rr.Book.Features()) {
		t.Fatal("codebooks diverge after restore")
	}
	if fr.Log.Distinct() != rr.Log.Distinct() || fr.Log.Total() != rr.Log.Total() {
		t.Fatalf("log shape diverges: full (%d,%d) restored (%d,%d)",
			fr.Log.Distinct(), fr.Log.Total(), rr.Log.Distinct(), rr.Log.Total())
	}
	for i := 0; i < fr.Log.Distinct(); i++ {
		if fr.Log.Multiplicity(i) != rr.Log.Multiplicity(i) {
			t.Fatalf("multiplicity %d diverges: %d vs %d", i, fr.Log.Multiplicity(i), rr.Log.Multiplicity(i))
		}
		if fr.Log.Vector(i).Key() != rr.Log.Vector(i).Key() {
			t.Fatalf("vector %d diverges", i)
		}
	}
	// the restored state's serialization matches a fresh serialization of
	// the equivalent encoder
	if !reflect.DeepEqual(full.AppendState(nil), restored.AppendState(nil)) {
		t.Fatal("post-suffix states diverge")
	}
}

// TestRestoreEncoderRejectsCorruption: truncations and bad references must
// error, not panic or silently mis-restore.
func TestRestoreEncoderRejectsCorruption(t *testing.T) {
	e := NewEncoder(EncodeOptions{})
	e.AddBatch(stateTestEntries(60, 0))
	state := e.AppendState(nil)
	for cut := 0; cut < len(state); cut += 7 {
		if _, _, err := RestoreEncoder(EncodeOptions{}, state[:cut]); err == nil {
			// an unluckily-aligned truncation can decode as a smaller valid
			// state only if every section length agrees; with a nonzero raw
			// table that cannot happen at cut < len
			t.Fatalf("truncation at %d restored without error", cut)
		}
	}
	bad := append([]byte(nil), state...)
	bad[len(e.AppendAdmissions(nil, StateMark{}))] = 99 // version byte, first of the counters
	if _, _, err := RestoreEncoder(EncodeOptions{}, bad); err == nil {
		t.Fatal("bad version restored without error")
	}
}

// assertEncodersEqual compares two encoders through everything a snapshot
// and a serialized state expose.
func assertEncodersEqual(t *testing.T, label string, got, want *Encoder) {
	t.Helper()
	gr, wr := got.Result(), want.Result()
	if gr.Stats != wr.Stats {
		t.Fatalf("%s: stats diverge:\n got %+v\nwant %+v", label, gr.Stats, wr.Stats)
	}
	if gr.Epoch != wr.Epoch {
		t.Fatalf("%s: epoch diverges: got %+v want %+v", label, gr.Epoch, wr.Epoch)
	}
	if !bytes.Equal(got.AppendState(nil), want.AppendState(nil)) {
		t.Fatalf("%s: serialized states diverge", label)
	}
}

// TestEncoderStateDeltas: the admission state taken as N deltas — one after
// every batch, each covering only what that batch admitted — restores the
// same encoder as the one-shot full state, restoring it and feeding the
// stream's suffix still equals the uninterrupted encoder, and an
// out-of-order or repeated delta is refused.
func TestEncoderStateDeltas(t *testing.T) {
	opts := EncodeOptions{}
	full := NewEncoder(opts)
	var deltas [][]byte
	var mark StateMark
	for i := 0; i < 6; i++ {
		full.AddBatch(append(stateTestEntries(40, i*23),
			// a new shape, a new constant on an old shape, a new failure
			LogEntry{SQL: fmt.Sprintf("SELECT z%d FROM fresh%d WHERE z%d = 1", i, i, i), Count: 2},
			LogEntry{SQL: fmt.Sprintf("SELECT a, b FROM t0 WHERE a = %d", 1000+i)},
			LogEntry{SQL: fmt.Sprintf("CALL fresh_proc(%d)", 1000+i)}))
		if full.Mark() == mark {
			t.Fatalf("batch %d admitted nothing; widen the stream", i)
		}
		deltas = append(deltas, full.AppendAdmissions(nil, mark))
		mark = full.Mark()
	}
	if empty := full.AppendAdmissions(nil, mark); len(empty) != 3 {
		t.Fatalf("a delta since the current mark is %d bytes, want three zero counts", len(empty))
	}

	fromDeltas := NewEncoder(opts)
	for i, d := range deltas {
		rest, err := fromDeltas.RestoreAdmissions(d, StateVersion)
		if err != nil || len(rest) != 0 {
			t.Fatalf("delta %d: rest=%d err=%v", i, len(rest), err)
		}
	}
	if _, err := fromDeltas.RestoreCounters(full.AppendCounters(nil)); err != nil {
		t.Fatalf("RestoreCounters: %v", err)
	}
	oneShot, _, err := RestoreEncoder(opts, full.AppendState(nil))
	if err != nil {
		t.Fatal(err)
	}
	assertEncodersEqual(t, "deltas vs one-shot", fromDeltas, oneShot)
	assertEncodersEqual(t, "deltas vs live", fromDeltas, full)
	if fromDeltas.Mark() != full.Mark() {
		t.Fatalf("restored mark %+v, live mark %+v", fromDeltas.Mark(), full.Mark())
	}

	suffix := stateTestEntries(120, 301)
	full.AddBatch(suffix)
	fromDeltas.AddBatch(suffix)
	oneShot.AddBatch(suffix)
	assertEncodersEqual(t, "deltas+suffix", fromDeltas, full)
	assertEncodersEqual(t, "one-shot+suffix", oneShot, full)

	// counters taken at another table size do not fit
	short := NewEncoder(opts)
	for _, d := range deltas[:len(deltas)-1] {
		if _, err := short.RestoreAdmissions(d, StateVersion); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := short.RestoreCounters(oneShot.AppendCounters(nil)); err == nil {
		t.Fatal("counters restored onto tables missing a delta")
	}
	// a delta applied twice, or before its predecessor, does not continue the tables
	if _, err := short.RestoreAdmissions(deltas[0], StateVersion); err == nil {
		t.Fatal("a repeated delta restored without error")
	}
	skip := NewEncoder(opts)
	if _, err := skip.RestoreAdmissions(deltas[1], StateVersion); err == nil {
		t.Fatal("a delta restored without its predecessor")
	}
}

// TestRestoreCountersRejectsInconsistentSums: counters whose canonical
// multiplicities do not add up to the restored totals — the encoded and
// SELECT counts, and weighted by each canonical query's feature count the
// feature total — are refused with an error that names the mismatch.
func TestRestoreCountersRejectsInconsistentSums(t *testing.T) {
	e := NewEncoder(EncodeOptions{})
	e.AddBatch(stateTestEntries(80, 0))
	adm := e.AppendAdmissions(nil, StateMark{})
	counters := func(mut func(c *Encoder)) []byte {
		cp := *e
		cp.canon = append([]canonical(nil), e.canon...)
		mut(&cp)
		return cp.AppendCounters(nil)
	}
	for name, mut := range map[string]func(c *Encoder){
		"multiplicity":  func(c *Encoder) { c.canon[0].count++ },
		"encoded total": func(c *Encoder) { c.encodedN++ },
		"SELECT total":  func(c *Encoder) { c.stats.Queries-- },
		"feature total": func(c *Encoder) { c.featSum += 3 },
	} {
		r := NewEncoder(EncodeOptions{})
		if _, err := r.RestoreAdmissions(adm, StateVersion); err != nil {
			t.Fatal(err)
		}
		if _, err := r.RestoreCounters(counters(mut)); err == nil || !strings.Contains(err.Error(), "sum to") {
			t.Errorf("%s off: RestoreCounters returned %v, want an error naming the sums", name, err)
		}
	}
	r := NewEncoder(EncodeOptions{})
	if _, err := r.RestoreAdmissions(adm, StateVersion); err != nil {
		t.Fatal(err)
	}
	if _, err := r.RestoreCounters(e.AppendCounters(nil)); err != nil {
		t.Fatalf("consistent counters refused: %v", err)
	}
}
