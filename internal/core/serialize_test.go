package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/feature"
)

func buildBookAndLog(t *testing.T) (*Log, *feature.Codebook) {
	t.Helper()
	book := feature.NewCodebook(feature.AligonScheme)
	i1 := book.Register(feature.Feature{Kind: feature.SelectKind, Text: "_id"})
	i2 := book.Register(feature.Feature{Kind: feature.FromKind, Text: "messages"})
	i3 := book.Register(feature.Feature{Kind: feature.WhereKind, Text: "status = ?"})
	i4 := book.Register(feature.Feature{Kind: feature.FromKind, Text: "contacts"})
	l := NewLog(book.Size())
	l.Add(bitvec.FromIndices(4, i1, i2, i3), 30)
	l.Add(bitvec.FromIndices(4, i1, i2), 10)
	l.Add(bitvec.FromIndices(4, i4), 10)
	return l, book
}

// writeSummaryJSON writes m in the version-1 JSON layout, which ReadSummary
// still reads but nothing writes any more: the fixture of the JSON
// reader's tests.
func writeSummaryJSON(w io.Writer, m Mixture, book *feature.Codebook) error {
	f := summaryFile{Version: 1, Universe: m.Universe, Total: m.Total, Scheme: int(book.Scheme())}
	for i := 0; i < m.Universe; i++ {
		ft := book.Feature(i)
		f.Features = append(f.Features, featureEntry{Kind: int(ft.Kind), Text: ft.Text})
	}
	for _, c := range m.Components {
		rec := clusterRecord{Count: c.Count}
		for j, idx := range c.Feat {
			rec.Index = append(rec.Index, int(idx))
			rec.Marginal = append(rec.Marginal, c.marginal(j))
		}
		f.Clusters = append(f.Clusters, rec)
	}
	return json.NewEncoder(w).Encode(f)
}

func TestSummaryRoundTrip(t *testing.T) {
	l, book := buildBookAndLog(t)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})

	var buf bytes.Buffer
	if err := writeSummaryJSON(&buf, mix, book); err != nil {
		t.Fatal(err)
	}
	m2, book2, err := ReadSummary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Universe != mix.Universe || m2.Total != mix.Total || m2.K() != mix.K() {
		t.Fatalf("shape mismatch: %+v vs %+v", m2, mix)
	}
	// marginal estimates must be identical
	for f := 0; f < l.Universe(); f++ {
		b := bitvec.FromIndices(l.Universe(), f)
		if got, want := m2.EstimateMarginal(b), mix.EstimateMarginal(b); got != want {
			t.Errorf("feature %d marginal %g != %g", f, got, want)
		}
	}
	// codebook survives
	if book2.Size() != book.Size() {
		t.Fatalf("codebook size %d != %d", book2.Size(), book.Size())
	}
	for i := 0; i < book.Size(); i++ {
		if book2.Feature(i) != book.Feature(i) {
			t.Errorf("feature %d = %v, want %v", i, book2.Feature(i), book.Feature(i))
		}
	}
	// visualization still renders
	viz := Visualize(m2, book2, VisualizeOptions{})
	if !strings.Contains(viz, "messages") {
		t.Errorf("restored visualization missing table: %s", viz)
	}
}

// TestSummaryBinaryRoundTrip: the compact binary format restores the exact
// mixture and codebook, ReadSummary auto-detects it, and the artifact is
// smaller than the JSON one.
func TestSummaryBinaryRoundTrip(t *testing.T) {
	l, book := buildBookAndLog(t)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})

	var bin, js bytes.Buffer
	if err := WriteSummaryBinary(&bin, mix, book); err != nil {
		t.Fatal(err)
	}
	if err := writeSummaryJSON(&js, mix, book); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Errorf("binary artifact (%d bytes) not smaller than JSON (%d bytes)", bin.Len(), js.Len())
	}
	m2, book2, err := ReadSummary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Universe != mix.Universe || m2.Total != mix.Total || m2.K() != mix.K() {
		t.Fatalf("shape mismatch: %+v vs %+v", m2, mix)
	}
	if !reflect.DeepEqual(m2, mix) {
		t.Fatalf("restored mixture %+v, want %+v", m2, mix)
	}
	if book2.Size() != book.Size() {
		t.Fatalf("codebook size %d != %d", book2.Size(), book.Size())
	}
	for i := 0; i < book.Size(); i++ {
		if book2.Feature(i) != book.Feature(i) {
			t.Errorf("feature %d = %v, want %v", i, book2.Feature(i), book.Feature(i))
		}
	}
}

// TestSummaryFormatsInteroperate: both writers' artifacts decode through
// the same auto-detecting reader to identical estimates.
func TestSummaryFormatsInteroperate(t *testing.T) {
	l, book := buildBookAndLog(t)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 1, 1}, K: 2})

	var bin, js bytes.Buffer
	if err := WriteSummaryBinary(&bin, mix, book); err != nil {
		t.Fatal(err)
	}
	if err := writeSummaryJSON(&js, mix, book); err != nil {
		t.Fatal(err)
	}
	mb, _, err := ReadSummary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	mj, _, err := ReadSummary(&js)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < l.Universe(); f++ {
		b := bitvec.FromIndices(l.Universe(), f)
		if mb.EstimateMarginal(b) != mj.EstimateMarginal(b) {
			t.Errorf("feature %d: binary %v != json %v", f, mb.EstimateMarginal(b), mj.EstimateMarginal(b))
		}
	}
}

// TestSummaryRoundTripAfterCodebookGrowth: a summary whose codebook has
// grown past its universe (appends after Compress, or a range summary
// ending before the newest segment) serializes its epoch's codebook prefix
// and round-trips in both formats.
func TestSummaryRoundTripAfterCodebookGrowth(t *testing.T) {
	l, book := buildBookAndLog(t)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	// the codebook grows after the mixture's snapshot
	book.Register(feature.Feature{Kind: feature.FromKind, Text: "late_table"})
	book.Register(feature.Feature{Kind: feature.WhereKind, Text: "late = ?"})

	for name, write := range map[string]func(*bytes.Buffer) error{
		"binary": func(b *bytes.Buffer) error { return WriteSummaryBinary(b, mix, book) },
		"json":   func(b *bytes.Buffer) error { return writeSummaryJSON(b, mix, book) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m2, book2, err := ReadSummary(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m2.Universe != mix.Universe || book2.Size() != mix.Universe {
			t.Fatalf("%s: universe %d, restored book size %d, want both %d", name, m2.Universe, book2.Size(), mix.Universe)
		}
		for f := 0; f < mix.Universe; f++ {
			b := bitvec.FromIndices(mix.Universe, f)
			if m2.EstimateMarginal(b) != mix.EstimateMarginal(b) {
				t.Fatalf("%s: feature %d marginal drifted", name, f)
			}
		}
	}
}

// TestReadSummaryRejectsCorruptBinary: truncations and header corruption
// fail loudly instead of yielding a half-read mixture.
func TestReadSummaryRejectsCorruptBinary(t *testing.T) {
	l, book := buildBookAndLog(t)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	var buf bytes.Buffer
	if err := WriteSummaryBinary(&buf, mix, book); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// bumped version byte
	bad := append([]byte(nil), good...)
	bad[4] = 99
	if _, _, err := ReadSummary(bytes.NewReader(bad)); err == nil {
		t.Error("expected an error for an unknown binary version")
	}
	// truncations at every section boundary-ish offset
	for _, cut := range []int{5, 8, len(good) / 2, len(good) - 1} {
		if cut >= len(good) {
			continue
		}
		if _, _, err := ReadSummary(bytes.NewReader(good[:cut])); err == nil {
			t.Errorf("expected an error for a %d-byte truncation", cut)
		}
	}

	for _, c := range corruptBinarySummaries {
		_, _, err := ReadSummary(bytes.NewReader(c.src))
		if err == nil || !strings.Contains(err.Error(), "cluster 0") {
			t.Errorf("%s: got error %v, want one naming cluster 0", c.name, err)
		}
	}
}

// handBuiltBinary is a version-1 (trailer-less) LGRS artifact over the
// universe {a, b} with one cluster of 4 queries, total 10: the given index
// deltas, then the given marginals.
func handBuiltBinary(deltas []byte, marginals ...float64) []byte {
	b := []byte("LGRS\x01")
	b = append(b,
		2,         // universe
		10,        // total
		0,         // scheme
		2,         // feature count
		0, 1, 'a', // feature 0
		0, 1, 'b', // feature 1
		1,                 // cluster count
		4,                 // cluster 0 count
		byte(len(deltas)), // support
	)
	b = append(b, deltas...)
	for _, p := range marginals {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
	}
	return b
}

// corruptBinarySummaries are hand-built binary artifacts whose single
// cluster breaks the ascending, count ≥ 1 support invariant.
var corruptBinarySummaries = []struct {
	name string
	src  []byte
}{
	// a zero delta past the first entry encodes feature 0 twice
	{"duplicate sparse index", handBuiltBinary([]byte{0, 0}, 0.5, 0.5)},
	// feature 1 is in the support with count 0
	{"zero marginal in the support", handBuiltBinary([]byte{0, 1}, 0.5, 0)},
	// 0.1 of 4 queries rounds to a count of 0
	{"marginal below one query", handBuiltBinary([]byte{1}, 0.1)},
}

// corruptJSONSummaries are JSON documents ReadSummary must reject; want,
// when set, is a fragment the error must contain.
var corruptJSONSummaries = []struct {
	src, want string
}{
	{``, ""},
	{`{"version":99}`, ""},
	{`{"version":1,"universe":2,"features":[{"kind":0,"text":"t"}]}`, ""}, // universe mismatch
	{`{"version":1,"universe":1,"total_queries":1,"features":[{"kind":0,"text":"t"}],
	  "clusters":[{"count":1,"index":[0,1],"marginal":[0.5]}]}`, ""}, // ragged arrays
	{`{"version":1,"universe":1,"total_queries":1,"features":[{"kind":0,"text":"t"}],
	  "clusters":[{"count":1,"index":[5],"marginal":[0.5]}]}`, ""}, // index out of range
	{`{"version":1,"universe":1,"total_queries":1,"features":[{"kind":0,"text":"t"}],
	  "clusters":[{"count":1,"index":[0],"marginal":[1.5]}]}`, ""}, // marginal out of range
	{`{"version":1,"universe":2,"total_queries":4,"features":[{"kind":0,"text":"a"},{"kind":0,"text":"b"}],
	  "clusters":[{"count":4,"index":[0,0],"marginal":[0.5,0.25]}]}`, "cluster 0"}, // duplicate index
	{`{"version":1,"universe":2,"total_queries":4,"features":[{"kind":0,"text":"a"},{"kind":0,"text":"b"}],
	  "clusters":[{"count":4,"index":[1,0],"marginal":[0.5,0.25]}]}`, "cluster 0"}, // unsorted indices
	{`{"version":1,"universe":2,"total_queries":4,"features":[{"kind":0,"text":"a"},{"kind":0,"text":"b"}],
	  "clusters":[{"count":4,"index":[0,1],"marginal":[0.5,0]}]}`, "cluster 0"}, // zero marginal in the support
	{`{"version":1,"universe":2,"total_queries":4,"features":[{"kind":0,"text":"a"},{"kind":0,"text":"a"}],
	  "clusters":[]}`, "repeats feature 1"}, // duplicate codebook entry
}

func TestReadSummaryRejectsCorrupt(t *testing.T) {
	for i, c := range corruptJSONSummaries {
		_, _, err := ReadSummary(bytes.NewBufferString(c.src))
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: got error %v, want one containing %q", i, err, c.want)
		}
	}
}

// FuzzReadSummary: ReadSummary never panics, and whatever it accepts, in
// either format, re-writes as LGRS to bytes that read back and re-write
// identically.
func FuzzReadSummary(f *testing.F) {
	for _, name := range []string{"summary_v2.lgrs", "summary_v1.json"} {
		raw, err := os.ReadFile("testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, c := range corruptBinarySummaries {
		f.Add(c.src)
	}
	for _, c := range corruptJSONSummaries {
		f.Add([]byte(c.src))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, book, err := ReadSummary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := WriteSummaryBinary(&first, m, book); err != nil {
			t.Fatalf("accepted summary does not re-write: %v", err)
		}
		m2, book2, err := ReadSummary(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-written summary does not read back: %v", err)
		}
		if err := WriteSummaryBinary(&second, m2, book2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-write is not stable:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}

// TestBinarySummaryCRCTrailer: the version-2 artifact ends in a CRC32 over
// everything before it, so ANY single-byte flip anywhere in the artifact —
// header, codebook, marginal bits, or the trailer itself — must be detected
// on read. A trailer-less version-1 artifact (the pre-CRC format) must
// still load and decode to the same mixture.
func TestBinarySummaryCRCTrailer(t *testing.T) {
	l, book := buildBookAndLog(t)
	mix, _ := BuildNaiveMixture(l, cluster.Assignment{Labels: []int{0, 0, 1}, K: 2})
	var buf bytes.Buffer
	if err := WriteSummaryBinary(&buf, mix, book); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, _, err := ReadSummary(bytes.NewReader(good)); err != nil {
		t.Fatalf("pristine artifact: %v", err)
	}

	for off := 0; off < len(good); off++ {
		bad := append([]byte(nil), good...)
		bad[off] ^= 0x01
		if _, _, err := ReadSummary(bytes.NewReader(bad)); err == nil {
			t.Fatalf("flipping byte %d of %d went undetected", off, len(good))
		}
	}

	// synthesize the legacy trailer-less version-1 artifact: same body,
	// version byte 1, no CRC words
	legacy := append([]byte(nil), good[:len(good)-4]...)
	legacy[len(binaryMagic)] = 1
	m2, book2, err := ReadSummary(bytes.NewReader(legacy))
	if err != nil {
		t.Fatalf("legacy version-1 artifact failed to load: %v", err)
	}
	if m2.Universe != mix.Universe || m2.Total != mix.Total || len(m2.Components) != len(mix.Components) {
		t.Fatalf("legacy artifact decoded shape mismatch")
	}
	if book2.Size() != book.Size() {
		t.Fatalf("legacy artifact codebook mismatch")
	}
	if !reflect.DeepEqual(m2.Components, mix.Components) {
		t.Fatal("legacy artifact components drifted")
	}
}
