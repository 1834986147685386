package server_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"logr"
	"logr/internal/gateway"
	"logr/internal/server"
)

// ingestFront is one /ingest front under test: logrd itself, or a gateway
// over one logrd. w is the workload that ends up holding what the front
// accepts.
type ingestFront struct {
	name string
	url  string
	w    *logr.Workload
}

// ingestFronts serves a fresh workload through logrd and another through a
// gateway over one logrd; both fronts cap an /ingest body at maxBody
// (0 = the default).
func ingestFronts(t *testing.T, maxBody int64) []ingestFront {
	t.Helper()
	open := func() *logr.Workload {
		w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		return w
	}
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	node, shard := open(), open()
	nodeURL := serve(server.New(node, server.Options{MaxBodyBytes: maxBody}).Handler())
	g, err := gateway.New(gateway.Options{
		Shards:        []string{serve(server.New(shard, server.Options{}).Handler())},
		MaxBodyBytes:  maxBody,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	return []ingestFront{{"logrd", nodeURL, node}, {"gateway", serve(g.Handler()), shard}}
}

// post sends body to url's /ingest with Content-Type ct and returns the
// status and the response body.
func post(t *testing.T, url, ct, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/ingest", ct, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	msg, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(msg)
}

// TestIngestBodyLimit: an oversized ingest body is refused with 413, by
// logrd and by the gateway alike.
func TestIngestBodyLimit(t *testing.T) {
	big := strings.Repeat("SELECT c FROM t WHERE k = ?\n", 100)
	for _, f := range ingestFronts(t, 256) {
		if code, msg := post(t, f.url, "text/plain", big); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body: HTTP %d %s, want 413", f.name, code, msg)
		}
		if f.w.Queries() != 0 {
			t.Fatalf("%s: refused body still ingested %d queries", f.name, f.w.Queries())
		}
	}
}

// TestIngestBodyLimitJSON: the JSON codec keeps the same cap. A JSON body
// past it is 413 whether the excess is inside the object or after it,
// and one at the cap is accepted.
func TestIngestBodyLimitJSON(t *testing.T) {
	const limit = 256
	entries := `{"entries":[` + strings.Repeat(`{"SQL":"SELECT c FROM t WHERE k = ?","Count":1},`, 10) + `{}]}`
	fits := `{"entries":[{"SQL":"SELECT c FROM t WHERE k = ?","Count":2}]}`
	fits += strings.Repeat(" ", limit-len(fits))
	for _, f := range ingestFronts(t, limit) {
		for _, body := range []string{entries, fits[:len(fits)-3] + strings.Repeat(" ", 3*limit)} {
			if code, msg := post(t, f.url, "application/json", body); code != http.StatusRequestEntityTooLarge {
				t.Fatalf("%s: %d-byte JSON body: HTTP %d %s, want 413", f.name, len(body), code, msg)
			}
		}
		if f.w.Queries() != 0 {
			t.Fatalf("%s: refused bodies still ingested %d queries", f.name, f.w.Queries())
		}
		if code, msg := post(t, f.url, "application/json", fits); code != http.StatusOK {
			t.Fatalf("%s: a %d-byte JSON body under a %d-byte cap: HTTP %d %s", f.name, len(fits), limit, code, msg)
		}
		if got := f.w.Queries(); got != 2 {
			t.Fatalf("%s: the body at the cap ingested %d queries, want 2", f.name, got)
		}
	}
}

// TestIngestTrailingData: a JSON body is one object. Anything but
// whitespace after it is a 400 from logrd and the gateway alike, and
// nothing of the body is ingested (json.Decoder alone would ingest the
// first object and drop the rest).
func TestIngestTrailingData(t *testing.T) {
	a := `{"entries":[{"SQL":"SELECT a FROM t WHERE k = ?","Count":3}]}`
	b := `{"entries":[{"SQL":"SELECT b FROM u WHERE k = ?","Count":4}]}`
	for _, f := range ingestFronts(t, 0) {
		for _, body := range []string{a + b, a + "\n" + b, a + " x", a + "]", "null " + a} {
			if code, msg := post(t, f.url, "application/json", body); code != http.StatusBadRequest {
				t.Fatalf("%s: %q: HTTP %d %s, want 400", f.name, body, code, msg)
			}
		}
		if got := f.w.Queries(); got != 0 {
			t.Fatalf("%s: bodies with trailing data ingested %d queries", f.name, got)
		}
		if code, msg := post(t, f.url, "application/json", " "+a+" \r\n\t"); code != http.StatusOK {
			t.Fatalf("%s: whitespace around the object: HTTP %d %s", f.name, code, msg)
		}
		if got := f.w.Queries(); got != 3 {
			t.Fatalf("%s: ingested %d queries, want 3", f.name, got)
		}
	}
}

// TestIngestContentTypeVariants: JSON bodies with charset parameters or
// different casing must hit the JSON codec, never the raw-SQL text path,
// and a malformed Content-Type is the same 400 from logrd and the gateway.
func TestIngestContentTypeVariants(t *testing.T) {
	body := `{"entries":[{"sql":"SELECT c FROM t WHERE k = ?","count":3}]}`
	var malformed []string
	for _, f := range ingestFronts(t, 0) {
		for _, ct := range []string{
			"application/json; charset=utf-8",
			"application/json;charset=UTF-8",
			"Application/JSON",
		} {
			if code, msg := post(t, f.url, ct, body); code != http.StatusOK {
				t.Fatalf("%s: %q: HTTP %d %s", f.name, ct, code, msg)
			}
		}
		if got := f.w.Queries(); got != 9 {
			t.Fatalf("%s: 3 JSON ingests of count 3 yielded %d queries, want 9 (a variant fell into the text path)", f.name, got)
		}
		// a malformed Content-Type is a client error, not a text-path fallback
		code, msg := post(t, f.url, "application/", body)
		if code != http.StatusBadRequest {
			t.Fatalf("%s: malformed Content-Type: HTTP %d, want 400", f.name, code)
		}
		malformed = append(malformed, msg)
	}
	if malformed[0] != malformed[1] {
		t.Fatalf("malformed Content-Type answered %q by logrd but %q by the gateway", malformed[0], malformed[1])
	}
}
