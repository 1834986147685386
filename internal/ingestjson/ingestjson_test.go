package ingestjson_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"logr"
	"logr/client"
	"logr/internal/ingestjson"
)

// oracle is the body json.Encoder writes for entries with HTML escaping
// off: what Append must reproduce byte for byte.
func oracle(t testing.TB, entries []logr.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(client.IngestRequest{Entries: entries}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// decodeOracle is what encoding/json's Decoder makes of body, as the
// daemons decoded it before the codec.
func decodeOracle(body []byte) ([]logr.Entry, error) {
	var req client.IngestRequest
	err := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req.Entries, err
}

// checkAppend asserts Append agrees with the oracle on entries and that
// the body decodes on Decode's fast path to what encoding/json
// reads from it.
func checkAppend(t testing.TB, entries []logr.Entry) {
	t.Helper()
	want := oracle(t, entries)
	got := ingestjson.Append(nil, entries)
	if !bytes.Equal(got, want) {
		t.Fatalf("Append(%q):\n got %q\nwant %q", entries, got, want)
	}
	back, ok := ingestjson.Decode(got)
	if !ok {
		t.Fatalf("Append's own body %q is outside Decode's subset", got)
	}
	oracleBack, err := decodeOracle(got)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, oracleBack) {
		t.Fatalf("round trip of %q: Decode %q, encoding/json %q", entries, back, oracleBack)
	}
}

func TestAppendMatchesEncoder(t *testing.T) {
	for _, entries := range [][]logr.Entry{
		nil,
		{},
		{{}},
		{{SQL: "SELECT a FROM t WHERE b < ? AND c > ? AND d <> ? AND e = 'x&y'", Count: 3}},
		{{SQL: "tab\there \"quoted\" back\\slash /slash", Count: -7}, {SQL: "ctl \x00\x01\x1f\b\f\n\r", Count: math.MaxInt}},
		{{SQL: "\u00e9 \U0001F600 \u2028 \u2029 \ufffd", Count: math.MinInt}},
		{{SQL: "bad \xff utf8 \xe2\x82", Count: 0}, {SQL: "\xed\xa0\x80 surrogate in UTF-8"}},
	} {
		checkAppend(t, entries)
	}
}

// FuzzAppendIngest: Append is byte-identical to json.Encoder with
// SetEscapeHTML(false), and the body round-trips
// through Decode's fast path to what encoding/json reads from it.
func FuzzAppendIngest(f *testing.F) {
	f.Add([]byte("SELECT a FROM t WHERE b < ? & c > ?"), int64(3), uint8(1))
	f.Add([]byte("x\x00\"\\ \xff\xed\xa0\x80é"), int64(-1), uint8(3))
	f.Add([]byte{}, int64(math.MinInt64), uint8(0))
	f.Add([]byte("nil"), int64(0), uint8(255))
	f.Fuzz(func(t *testing.T, raw []byte, count int64, n uint8) {
		var entries []logr.Entry
		if n != 255 {
			k := int(n % 8)
			entries = make([]logr.Entry, k)
			for i := range entries {
				entries[i] = logr.Entry{
					SQL:   string(raw[i*len(raw)/k : (i+1)*len(raw)/k]),
					Count: int(count) * (1 - 2*(i%2)) / (i + 1),
				}
			}
		}
		checkAppend(t, entries)
	})
}

// TestDecodeSubset pins which bodies take the fast path and that each one
// there decodes to what encoding/json returns, and which go to the
// fallback.
func TestDecodeSubset(t *testing.T) {
	fast := []string{
		`{"entries":[{"SQL":"SELECT a FROM t WHERE b < ?","Count":3}]}` + "\n",
		` { "entries" : [ { "sql" : "x" , "COUNT" : -0 } , null , {} ] } ` + "\r\n\t",
		`null`, `{}`, `{"entries":null}`, `{"entries":[]}`, `{"Entries":[null]}`,
		`{"entries":[{"SQL":null,"Count":null}]}`,
		`{"entries":[{"SQL":"esc \" \\ \/ \b \f \n \r \t é 😀 \uD800 \uDC00x \uD800A é"}]}`,
		`{"entries":[{"SQL":"a","Count":5}],"entries":[{"SQL":"b"}]}`,
		`{"entries":[{"SQL":"a","Count":5},{"SQL":"c","Count":7}],"entries":[{"SQL":"b"}],"entries":[null,null]}`,
		`{"entries":[{"SQL":"a","Count":5}],"entries":[],"entries":[null]}`,
		`{"entries":[{"SQL":"a","Count":5}],"entries":null}`,
		`{"entries":[{"sql":"a","SQL":"b","Sql":null,"count":1,"Count":2}]}`,
		`{"entries":[{"Count":9223372036854775807},{"Count":-9223372036854775808}]}`,
	}
	slow := []string{
		``, `   `, `nul`, `{"entries":[]}x`, `{"entries":[]}{"entries":[]}`, `{"entries":[]`,
		`{"ſql":1}`, `{"entries":[{"ſql":"x"}]}`, `{"entries":[{"\u0053QL":"x"}]}`, `{"entrie\u017f":[]}`,
		`{"entries":[{"SQL":"x","Extra":1}]}`, `{"other":1}`,
		`{"entries":[{"Count":1.0}]}`, `{"entries":[{"Count":1e2}]}`, `{"entries":[{"Count":01}]}`,
		`{"entries":[{"Count":9223372036854775808}]}`, `{"entries":[{"Count":-9223372036854775809}]}`,
		`{"entries":[{"Count":"3"}]}`, `{"entries":[{"SQL":3}]}`, `{"entries":{}}`, `{"entries":[1]}`,
		"{\"entries\":[{\"SQL\":\"bad \xff\"}]}", "{\"entries\":[{\"SQL\":\"ctl \x01\"}]}",
		`{"entries":[{"SQL":"\x"}]}`, `{"entries":[{"SQL":"\u12"}]}`, `{"entries":[,]}`, `{"entries":[{},]}`,
		`[]`, `"x"`, `5`, `true`,
	}
	for _, body := range fast {
		got, ok := ingestjson.Decode([]byte(body))
		if !ok {
			t.Errorf("%q: outside the fast subset", body)
			continue
		}
		want, err := decodeOracle([]byte(body))
		if err != nil {
			t.Errorf("%q: Decode accepts what encoding/json refuses: %v", body, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Decode %#v, encoding/json %#v", body, got, want)
		}
	}
	for _, body := range slow {
		if got, ok := ingestjson.Decode([]byte(body)); ok {
			t.Errorf("%q: decoded on the fast path to %#v, want the fallback", body, got)
		}
	}
}

// TestDecodeAllocs pins the fast path's allocations on a canonical
// 512-entry body: one string per entry plus the entries slice.
func TestDecodeAllocs(t *testing.T) {
	entries := make([]logr.Entry, 512)
	for i := range entries {
		entries[i] = logr.Entry{SQL: fmt.Sprintf("SELECT c%d FROM t%d WHERE k < ? AND v = 'a&b'", i, i%7), Count: i + 1}
	}
	body := ingestjson.Append(nil, entries)
	allocs := testing.AllocsPerRun(20, func() {
		if _, ok := ingestjson.Decode(body); !ok {
			t.Fatal("canonical body outside the fast subset")
		}
	})
	if limit := float64(len(entries) + 2); allocs > limit {
		t.Fatalf("decoding a %d-entry body allocates %.0f times, want at most %.0f", len(entries), allocs, limit)
	}
}

// TestAppendAllocs: a body whose SQL needs no escape is built in one
// allocation, however many entries it carries.
func TestAppendAllocs(t *testing.T) {
	entries := make([]logr.Entry, 512)
	for i := range entries {
		entries[i] = logr.Entry{SQL: fmt.Sprintf("SELECT c%d FROM t%d WHERE k < ? AND v = 'a&b'", i, i%7), Count: math.MinInt}
	}
	if allocs := testing.AllocsPerRun(20, func() { ingestjson.Append(nil, entries) }); allocs != 1 {
		t.Fatalf("Append allocates %.0f times for a %d-entry body, want 1", allocs, len(entries))
	}
}

// TestDecodeRepeatedEntriesKey: a body that sets "entries" to null before
// each of many one-element arrays decodes within a small multiple of the
// bytes and allocations of a plain body of as many entries and about the
// same length, not in time and memory growing with the square of its
// length.
func TestDecodeRepeatedEntriesKey(t *testing.T) {
	const n = 4000
	pairs := `{"entries":[{}]` + strings.Repeat(`,"entries":null,"entries":[{}]`, n-1) + `}`
	plain := `{"entries":[` + strings.Repeat(`{"SQL":"SELECT 1","Count":1},`, n-1) + `{"SQL":"SELECT 1","Count":1}]}`
	cost := func(body string) (size, allocs uint64) {
		b := []byte(body)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entries, ok := ingestjson.Decode(b)
		runtime.ReadMemStats(&after)
		if want, err := decodeOracle(b); !ok || err != nil || !reflect.DeepEqual(entries, want) {
			t.Fatalf("%.40q…: Decode %d entries (fast path %v), encoding/json %d (%v)", body, len(entries), ok, len(want), err)
		}
		return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
	}
	pb, pa := cost(pairs)
	bb, ba := cost(plain)
	if pb > 4*bb || pa > 2*ba {
		t.Fatalf("%d null/array pairs (%d bytes) allocate %d bytes in %d allocations; a plain %d-entry body (%d bytes) %d bytes in %d",
			n, len(pairs), pb, pa, n, len(plain), bb, ba)
	}
}

func BenchmarkDecode(b *testing.B) {
	entries := make([]logr.Entry, 512)
	for i := range entries {
		entries[i] = logr.Entry{SQL: strings.Repeat(fmt.Sprintf("SELECT c%d FROM t WHERE k < ? ", i), 3), Count: i + 1}
	}
	body := ingestjson.Append(nil, entries)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ingestjson.Decode(body)
	}
}

func BenchmarkEncoderOracle(b *testing.B) {
	entries := make([]logr.Entry, 512)
	for i := range entries {
		entries[i] = logr.Entry{SQL: strings.Repeat(fmt.Sprintf("SELECT c%d FROM t WHERE k < ? ", i), 3), Count: i + 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		oracle(b, entries)
	}
}

func BenchmarkDecodeOracle(b *testing.B) {
	entries := make([]logr.Entry, 512)
	for i := range entries {
		entries[i] = logr.Entry{SQL: strings.Repeat(fmt.Sprintf("SELECT c%d FROM t WHERE k < ? ", i), 3), Count: i + 1}
	}
	body := ingestjson.Append(nil, entries)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		decodeOracle(body)
	}
}

func BenchmarkAppend(b *testing.B) {
	entries := make([]logr.Entry, 512)
	for i := range entries {
		entries[i] = logr.Entry{SQL: strings.Repeat(fmt.Sprintf("SELECT c%d FROM t WHERE k < ? ", i), 3), Count: i + 1}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ingestjson.Append(nil, entries)
	}
}
