package workload

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"testing"

	"logr/internal/core"
)

// goldenStreams are the inputs whose encodings TestEncoderGoldenDigests
// pins: both paper generators (with noise, so both failure kinds occur) and
// a stream in which nearly every statement carries its own literals.
func goldenStreams() []struct {
	name    string
	entries []LogEntry
	opts    EncodeOptions
} {
	bank := USBank(USBankConfig{TotalQueries: 30000, DistinctTarget: 300, ConstantVariants: 8, NoiseEntries: 300, Seed: 3})
	return []struct {
		name    string
		entries []LogEntry
		opts    EncodeOptions
	}{
		{"usbank", bank, EncodeOptions{}},
		{"usbank-keep-constants", bank, EncodeOptions{KeepConstants: true}},
		{"pocketdata", PocketData(PocketDataConfig{TotalQueries: 30000, DistinctTarget: 605, Seed: 4}), EncodeOptions{}},
		{"distinct-literals", novelStream(20000, 5), EncodeOptions{}},
	}
}

// novelStream is a log in which the human templates' multiplicity is spread
// over so many constant bindings that almost every entry is a distinct
// statement with count 1 — what a live stream of literal-bearing queries
// looks like to the encoder.
func novelStream(total int, seed int64) []LogEntry {
	return USBank(USBankConfig{TotalQueries: total, DistinctTarget: 400, ConstantVariants: 1 << 20, NoiseEntries: 100, Seed: seed})
}

// encoderDigest hashes everything an encoder exposes that must not depend
// on how it was fed: the codebook, the canonical table, the snapshot's log,
// epoch and statistics, and a k-means summary of the log.
func encoderDigest(t *testing.T, e *Encoder, par int) string {
	t.Helper()
	var b bytes.Buffer
	book := e.Book()
	for i := 0; i < book.Size(); i++ {
		f := book.Feature(i)
		fmt.Fprintf(&b, "f %d %q\n", f.Kind, f.Text)
	}
	for _, c := range e.canon {
		fmt.Fprintf(&b, "c %q %v %d %v %v\n", c.key, c.indices, c.count, c.conjunctive, c.rewritable)
	}
	r := e.Result()
	l := r.Log
	for i := 0; i < l.Distinct(); i++ {
		fmt.Fprintf(&b, "v %v %d\n", l.Vector(i).Indices(), l.Multiplicity(i))
	}
	s := r.Stats
	fmt.Fprintf(&b, "s %d %d %d %d %d %d %d %d %.17g %d %d\n", s.TotalQueries, s.Queries, s.DistinctQueries,
		s.DistinctNoConst, s.DistinctConjunctive, s.DistinctRewritable, s.MaxMultiplicity, s.FeaturesNoConst,
		s.AvgFeaturesPerQuery, s.StoredProcedures, s.Unparseable)
	fmt.Fprintf(&b, "e %+v\n", r.Epoch)
	c, err := core.Compress(l, core.CompressOptions{K: 8, Seed: 1, Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	if err := core.WriteSummaryBinary(&b, c.Mixture, book); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:8])
}

// TestEncoderGoldenDigests pins the encoder's output on the golden streams
// at parallelism 1, on all cores and through the single-entry Add path.
func TestEncoderGoldenDigests(t *testing.T) {
	// written by the encoder that parsed every distinct statement and kept
	// it; the fingerprint fast path must not move a byte
	want := map[string]string{
		"usbank":                "4da43c5c958f1389",
		"usbank-keep-constants": "23f79d61bde7d379",
		"pocketdata":            "8f32209c08884ccc",
		"distinct-literals":     "bbc38136c10ee2d1",
	}
	for _, g := range goldenStreams() {
		serial := g.opts
		serial.Parallelism = 1
		e1 := NewEncoder(serial)
		e1.AddBatch(g.entries)
		all := NewEncoder(g.opts)
		all.AddBatch(g.entries)
		one := NewEncoder(serial)
		for _, en := range g.entries {
			one.Add(en)
		}
		d1, dAll, dOne := encoderDigest(t, e1, 1), encoderDigest(t, all, 0), encoderDigest(t, one, 1)
		if d1 != dAll || d1 != dOne {
			t.Errorf("%s: digests differ across feeding paths: p=1 %s, all cores %s, Add %s", g.name, d1, dAll, dOne)
		}
		if d1 != want[g.name] {
			t.Errorf("%s: digest %s, want %s", g.name, d1, want[g.name])
		}
	}
}

// TestEncoderDeterministicAtBankScale: on a bank log whose distinct raw
// statements far outnumber its shapes (so most statements take the
// fingerprint path, and the memo tables turn over), with noise (so lex
// failures and stored procedures cross the parallel windows), AddBatch at
// parallelism 1, 2, 8 and 32 (more workers than a window has chunk pairs)
// and an Add loop all end in the same statistics, codebook and state bytes.
func TestEncoderDeterministicAtBankScale(t *testing.T) {
	entries := USBank(USBankConfig{TotalQueries: 300000, DistinctTarget: 1712, ConstantVariants: 110, NoiseEntries: 2000, Seed: 1})
	one := NewEncoder(EncodeOptions{Parallelism: 1})
	for _, en := range entries {
		one.Add(en)
	}
	want := one.Result().Stats
	if want.DistinctQueries < 2*cacheLimit || want.DistinctQueries < 10*want.DistinctNoConst || want.StoredProcedures == 0 || want.Unparseable == 0 {
		t.Fatalf("the log does not cover the paths it is meant to: %+v", want)
	}
	wantBook, wantState := one.Book().Features(), one.AppendState(nil)
	for _, par := range []int{1, 2, 8, 32} {
		e := NewEncoder(EncodeOptions{Parallelism: par})
		e.AddBatch(entries)
		if got := e.Result().Stats; got != want {
			t.Errorf("parallelism %d: stats %+v, Add loop %+v", par, got, want)
		}
		if !reflect.DeepEqual(e.Book().Features(), wantBook) {
			t.Errorf("parallelism %d: codebook differs from the Add loop's", par)
		}
		if !bytes.Equal(e.AppendState(nil), wantState) {
			t.Errorf("parallelism %d: state bytes differ from the Add loop's", par)
		}
	}
}

// TestResolveWorkers: the lookup pass takes as many workers as it is
// asked for, up to two chunks each, so a large window fans out at any
// parallelism and a window of three chunks or fewer stays serial.
func TestResolveWorkers(t *testing.T) {
	for _, c := range []struct{ n, par, want int }{
		{addBatchWindow, 1, 1},
		{addBatchWindow, 2, 2},
		{addBatchWindow, 16, 16},
		{addBatchWindow, 17, 16}, // two of the window's 32 chunks each
		{769, 8, 2},
		{768, 8, 1},
		{512, 2, 1},
		{0, 2, 0},
	} {
		if got := resolveWorkers(c.n, c.par); got != c.want {
			t.Errorf("resolveWorkers(%d, %d) = %d, want %d", c.n, c.par, got, c.want)
		}
	}
}
