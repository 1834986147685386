package server

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

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
