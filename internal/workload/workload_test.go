package workload

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestZipfWeights(t *testing.T) {
	w := ZipfWeights(100, 1.1, 2)
	sum := 0.0
	for i, v := range w {
		if v <= 0 {
			t.Fatalf("weight %d = %g", i, v)
		}
		if i > 0 && v > w[i-1] {
			t.Fatalf("weights not decreasing at %d", i)
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("weights sum to %g", sum)
	}
}

func TestAllocateCounts(t *testing.T) {
	w := ZipfWeights(50, 1.0, 1)
	counts := AllocateCounts(w, 10000)
	sum := 0
	for _, c := range counts {
		if c < 1 {
			t.Fatalf("count below 1: %d", c)
		}
		sum += c
	}
	if sum != 10000 {
		t.Errorf("counts sum to %d", sum)
	}
	if counts[0] <= counts[len(counts)-1] {
		t.Errorf("head %d should exceed tail %d", counts[0], counts[len(counts)-1])
	}
}

func TestPocketDataShape(t *testing.T) {
	entries := PocketData(PocketDataConfig{TotalQueries: 20000, DistinctTarget: 300, Seed: 1})
	if len(entries) != 300 {
		t.Fatalf("distinct = %d, want 300", len(entries))
	}
	total := 0
	maxC := 0
	for _, e := range entries {
		total += e.Count
		if e.Count > maxC {
			maxC = e.Count
		}
	}
	if total != 20000 {
		t.Errorf("total = %d", total)
	}
	// heavy head: top query well above uniform share
	if maxC < 3*(20000/300) {
		t.Errorf("max multiplicity %d lacks skew", maxC)
	}
}

func TestPocketDataDeterministic(t *testing.T) {
	a := PocketData(PocketDataConfig{TotalQueries: 5000, DistinctTarget: 100, Seed: 7})
	b := PocketData(PocketDataConfig{TotalQueries: 5000, DistinctTarget: 100, Seed: 7})
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different logs")
	}
}

func TestPocketDataPipeline(t *testing.T) {
	entries := PocketData(PocketDataConfig{TotalQueries: 10000, DistinctTarget: 200, Seed: 1})
	res := Encode(entries, EncodeOptions{})
	s := res.Stats
	if s.Unparseable != 0 || s.StoredProcedures != 0 {
		t.Errorf("machine workload should fully parse: %+v", s)
	}
	if s.Queries != 10000 {
		t.Errorf("parsed = %d", s.Queries)
	}
	if s.DistinctRewritable != s.DistinctNoConst {
		t.Errorf("all PocketData queries should be rewritable: %d vs %d",
			s.DistinctRewritable, s.DistinctNoConst)
	}
	// non-trivial share of conjunctive queries, but well below the total
	if s.DistinctConjunctive == 0 || s.DistinctConjunctive >= s.DistinctNoConst {
		t.Errorf("conjunctive = %d of %d", s.DistinctConjunctive, s.DistinctNoConst)
	}
	if res.Log.Total() != 10000 {
		t.Errorf("log total = %d", res.Log.Total())
	}
	if res.Book.Size() < 50 {
		t.Errorf("feature universe suspiciously small: %d", res.Book.Size())
	}
	if s.AvgFeaturesPerQuery < 5 || s.AvgFeaturesPerQuery > 30 {
		t.Errorf("avg features/query = %g, expected Table-1-like range", s.AvgFeaturesPerQuery)
	}
}

func TestUSBankPipeline(t *testing.T) {
	entries := USBank(USBankConfig{TotalQueries: 20000, DistinctTarget: 250, ConstantVariants: 5, NoiseEntries: 30, Seed: 2})
	res := Encode(entries, EncodeOptions{})
	s := res.Stats
	if s.StoredProcedures == 0 {
		t.Error("expected stored-procedure noise to be counted")
	}
	if s.Unparseable == 0 {
		t.Error("expected unparseable noise to be counted")
	}
	// constant removal must collapse the distinct count substantially
	if s.DistinctNoConst >= s.DistinctQueries {
		t.Errorf("constant removal did not collapse: %d -> %d", s.DistinctQueries, s.DistinctNoConst)
	}
	if float64(s.DistinctNoConst) > 0.6*float64(s.DistinctQueries) {
		t.Errorf("collapse too weak: %d -> %d", s.DistinctQueries, s.DistinctNoConst)
	}
	// feature count with constants must exceed the scrubbed count
	if s.Features <= s.FeaturesNoConst {
		t.Errorf("features with const %d should exceed without %d", s.Features, s.FeaturesNoConst)
	}
	// most (but not all) distinct queries are conjunctive, echoing 1494/1712
	ratio := float64(s.DistinctConjunctive) / float64(s.DistinctNoConst)
	if ratio < 0.6 || ratio > 0.99 {
		t.Errorf("conjunctive ratio = %g, want Table-1-like 0.87ish", ratio)
	}
}

func TestInjectDrift(t *testing.T) {
	drift := InjectDrift(9, 20, 500)
	if len(drift) != 20 {
		t.Fatalf("distinct drift = %d", len(drift))
	}
	res := Encode(drift, EncodeOptions{})
	if res.Stats.Unparseable != 0 {
		t.Error("drift queries must parse")
	}
}

// TestSnapshotEpochAndAlignment pins the two contracts incremental
// recompression relies on: snapshot epochs are monotone, and a later
// snapshot's first Distinct vectors are the earlier snapshot's vectors in
// the same order (over a possibly larger universe) with multiplicities
// that only grow.
func TestSnapshotEpochAndAlignment(t *testing.T) {
	enc := NewEncoder(EncodeOptions{})
	enc.AddBatch([]LogEntry{
		{SQL: "SELECT a FROM t WHERE x = ?", Count: 5},
		{SQL: "SELECT b FROM u WHERE y = ?", Count: 3},
	})
	r1 := enc.Result()
	if r1.Epoch.Universe != r1.Log.Universe() || r1.Epoch.TotalQueries != 8 || r1.Epoch.Distinct != 2 {
		t.Fatalf("epoch %+v does not describe the snapshot", r1.Epoch)
	}
	enc.AddBatch([]LogEntry{
		{SQL: "SELECT a FROM t WHERE x = ?", Count: 2},           // increment
		{SQL: "SELECT c FROM v WHERE z = ? AND w = ?", Count: 4}, // new vector + new features
	})
	r2 := enc.Result()
	if r2.Epoch.Universe <= r1.Epoch.Universe || r2.Epoch.TotalQueries != 14 || r2.Epoch.Distinct != 3 {
		t.Fatalf("epoch not monotone: %+v -> %+v", r1.Epoch, r2.Epoch)
	}
	for i := 0; i < r1.Epoch.Distinct; i++ {
		grown := r1.Log.Vector(i).Grow(r2.Epoch.Universe)
		if !grown.Equal(r2.Log.Vector(i)) {
			t.Fatalf("vector %d moved between snapshots", i)
		}
		if r2.Log.Multiplicity(i) < r1.Log.Multiplicity(i) {
			t.Fatalf("multiplicity %d shrank", i)
		}
	}
	if r2.Log.Multiplicity(0) != 7 {
		t.Fatalf("increment lost: multiplicity %d", r2.Log.Multiplicity(0))
	}
}

func TestIORoundTrip(t *testing.T) {
	entries := []LogEntry{
		{SQL: "SELECT a FROM t WHERE x = ?", Count: 3},
		{SQL: "SELECT b FROM u", Count: 1},
	}
	var buf bytes.Buffer
	if err := WritePlain(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err := ReadPlain(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Errorf("plain round trip: %v", back)
	}

	buf.Reset()
	if err := WriteCompact(&buf, entries); err != nil {
		t.Fatal(err)
	}
	back, err = ReadCompact(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, entries) {
		t.Errorf("compact round trip: %v", back)
	}
}

func TestReadCompactBadCount(t *testing.T) {
	if _, err := ReadCompact(bytes.NewBufferString("zero\tSELECT 1\n")); err == nil {
		t.Error("expected error for non-numeric count")
	}
	if _, err := ReadCompact(bytes.NewBufferString("-3\tSELECT 1\n")); err == nil {
		t.Error("expected error for negative count")
	}
	// the bad-count error names the right line (blank lines still count)
	_, err := ReadCompact(bytes.NewBufferString("1\tSELECT 1\n\nx\tSELECT 2\n"))
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("bad-count error = %v, want line 3", err)
	}
}

// TestReadLineTooLong: an over-limit line is a *LineTooLongError naming the
// offending line, for both readers and at a configurable limit.
func TestReadLineTooLong(t *testing.T) {
	long := strings.Repeat("x", 200)
	input := "SELECT a FROM t\nSELECT b FROM u\nSELECT c FROM v WHERE note = '" + long + "'\n"

	for name, read := range map[string]func(string) error{
		"plain": func(s string) error {
			_, err := ReadPlainOptions(bytes.NewBufferString(s), ReadOptions{MaxLineBytes: 128})
			return err
		},
		"compact": func(s string) error {
			_, err := ReadCompactOptions(bytes.NewBufferString(s), ReadOptions{MaxLineBytes: 128})
			return err
		},
	} {
		err := read(input)
		var tooLong *LineTooLongError
		if !errors.As(err, &tooLong) {
			t.Fatalf("%s: err = %v, want *LineTooLongError", name, err)
		}
		if tooLong.Line != 3 || tooLong.Limit != 128 {
			t.Errorf("%s: error = %+v, want line 3 limit 128", name, tooLong)
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: message does not name the line: %q", name, err)
		}
	}

	// the same input fits under a raised limit
	if _, err := ReadPlainOptions(bytes.NewBufferString(input), ReadOptions{MaxLineBytes: 4096}); err != nil {
		t.Fatalf("raised limit: %v", err)
	}
	// and under the 1 MiB default
	if _, err := ReadPlain(bytes.NewBufferString(input)); err != nil {
		t.Fatalf("default limit: %v", err)
	}
}

// TestReadLineTooLongFirstLine: overflow on line 1 (no line ever delivered)
// still reports line 1.
func TestReadLineTooLongFirstLine(t *testing.T) {
	_, err := ReadPlainOptions(bytes.NewBufferString(strings.Repeat("y", 300)), ReadOptions{MaxLineBytes: 64})
	var tooLong *LineTooLongError
	if !errors.As(err, &tooLong) || tooLong.Line != 1 {
		t.Fatalf("err = %v, want *LineTooLongError at line 1", err)
	}
}
