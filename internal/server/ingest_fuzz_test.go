package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"logr/client"
	"logr/internal/workload"
)

// FuzzReadIngestBody feeds the text ingest codec arbitrary bodies under an
// arbitrary line cap. It must never panic; it must refuse a body with a
// line longer than the cap (an earlier bad line may be what it names) and
// never return an entry longer than the cap; and what it accepts must
// survive a round trip through WriteCompact, the format the client and
// `logr gen` send.
func FuzzReadIngestBody(f *testing.F) {
	f.Add([]byte("SELECT a FROM t\n3\tSELECT b FROM u WHERE c = ?\n"), uint16(64))
	f.Add([]byte("12\tSELECT x\r\n\n  \t7\tSELECT y  \nSELECT z"), uint16(8))
	f.Add([]byte("0\tSELECT a\n"), uint16(100))
	f.Add([]byte("-3\tSELECT a\n"), uint16(100))
	f.Add([]byte("x\ty\n"), uint16(100))
	f.Add([]byte(strings.Repeat("a", 300)), uint16(200))
	f.Fuzz(func(t *testing.T, body []byte, capSeed uint16) {
		limit := 16 + int(capSeed%512)
		entries, err := ReadIngestBody(bytes.NewReader(body), limit)
		long := false
		for _, line := range bytes.Split(body, []byte("\n")) {
			long = long || len(line) > limit
		}
		if err != nil {
			return
		}
		if long {
			t.Fatalf("a body with a line over the %d-byte cap read as %d entries", limit, len(entries))
		}
		raw := make([]workload.LogEntry, len(entries))
		for i, e := range entries {
			if len(e.SQL) > limit {
				t.Fatalf("entry of %d bytes under a %d-byte line cap", len(e.SQL), limit)
			}
			if e.Count <= 0 {
				t.Fatalf("entry with count %d", e.Count)
			}
			raw[i] = workload.LogEntry{SQL: e.SQL, Count: e.Count}
		}
		var buf bytes.Buffer
		if err := workload.WriteCompact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		again, err := ReadIngestBody(&buf, 0)
		if err != nil {
			t.Fatalf("WriteCompact output does not read back: %v", err)
		}
		if len(again) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(again, entries)) {
			t.Fatalf("round trip changed the entries:\n got %q\nwant %q", again, entries)
		}
	})
}

// FuzzDecodeIngest checks the JSON /ingest decoder against encoding/json:
// on every body, decodeJSON (ingestjson's fast path, or the encoding/json
// fallback outside its subset) accepts exactly what json.Decoder accepts
// with nothing but whitespace after the object, returns the same entries
// (nil or empty alike), and refuses with the same message what
// json.Decoder refuses.
func FuzzDecodeIngest(f *testing.F) {
	for _, body := range []string{
		`{"entries":[{"SQL":"SELECT a FROM t WHERE b < ? AND c = 'x&y'","Count":3}]}` + "\n",
		` {"Entries":[{"sql":"esc \" \\ \/ \b \f \n \r \t \u00e9 \uD83D\uDE00 \uD800 \uDC00x","COUNT":-0},null,{}]} `,
		`null`, `{}`, `{"entries":null}`, `{"entries":[]}`, `{"entries":[{"SQL":null,"Count":null}]}`,
		`{"entries":[{"SQL":"a","Count":5},{"SQL":"c","Count":7}],"entries":[{"SQL":"b"}],"entries":[null,null]}`,
		`{"entries":[{"SQL":"a","Count":5}],"entries":[],"entries":[null]}`,
		`{"entries":[{"sql":"a","SQL":"b","Sql":null,"count":1,"Count":2}]}`,
		"{\"entries\":[{\"\u017fql\":\"x\",\"\u212aey\":1}]}", `{"entries":[{"\u0053QL":"x"}]}`,
		`{"entries":[{"SQL":"x","Extra":[1,{"a":null}]}],"other":true}`,
		`{"entries":[{"Count":9223372036854775807},{"Count":-9223372036854775808}]}`,
		`{"entries":[{"Count":9223372036854775808}]}`, `{"entries":[{"Count":1e2}]}`, `{"entries":[{"Count":2.5}]}`,
		`{"entries":[{"Count":"3"}]}`, "{\"entries\":[{\"SQL\":\"bad \xff\"}]}",
		`{"entries":[]}x`, `{"entries":[{"SQL":"a"}]}{"entries":[{"SQL":"b"}]}`, `{"entries":[]`, ``, `[]`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, err := decodeJSON(body)
		var req client.IngestRequest
		dec := json.NewDecoder(bytes.NewReader(body))
		wantErr := dec.Decode(&req)
		trailing := wantErr == nil && len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0
		switch {
		case wantErr != nil:
			if err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("%q: encoding/json refuses with %v, decodeJSON answers %q, %v", body, wantErr, got, err)
			}
		case trailing:
			if err == nil {
				t.Fatalf("%q: data after the object accepted as %q", body, got)
			}
		case err != nil:
			t.Fatalf("%q: encoding/json reads %q, decodeJSON refuses: %v", body, req.Entries, err)
		case !reflect.DeepEqual(got, req.Entries):
			t.Fatalf("%q: decodeJSON %#v, encoding/json %#v", body, got, req.Entries)
		}
	})
}
