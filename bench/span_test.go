package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 100},
		{ID: 2, Name: "a", Start: 10, End: 30, Parent: 1},
		{ID: 3, Name: "b", Start: 20, End: 50, Parent: 1},     // overlaps a: [30,50) is new
		{ID: 4, Name: "c", Start: 90, End: 120, Parent: 1},    // reaches past the parent: [90,100) counts
		{ID: 5, Name: "grand", Start: 12, End: 18, Parent: 2}, // covers its own parent only
		{ID: 6, Name: "other", Start: 40, End: 60},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 100 - 20 - 20 - 10, 2: 20 - 6, 3: 30, 4: 30, 5: 6, 6: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	agg := aggregate(spans)
	if st := agg["parent"]; len(st.dur) != 1 || st.dur[0] != 100e-6 || st.self[0] != 50e-6 {
		t.Errorf("aggregate(parent) = %+v; want 100 ns long, 50 ns self, in ms", st)
	}
}

// A request's spans share its identifier and chain through Parent, inside
// the process (context) and across the connection (header).
func TestSpanPropagation(t *testing.T) {
	tr := newTracer()
	srv := httptest.NewServer(spanMiddleware(tr, "server", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if spanFrom(r.Context()).Name != "server/ingest" {
			t.Errorf("handler context carries %+v, want the server span", spanFrom(r.Context()))
		}
	})))
	defer srv.Close()
	root := tr.begin("client.ingest", span{})
	req, err := http.NewRequestWithContext(withSpan(context.Background(), root), http.MethodPost, srv.URL+"/ingest", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := (&spanTransport{base: http.DefaultTransport, tr: tr, name: "client.roundtrip"}).RoundTrip(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	tr.end(root)

	byName := map[string]span{}
	for _, s := range tr.snapshot() {
		byName[s.Name] = s
	}
	rt, sv := byName["client.roundtrip/ingest"], byName["server/ingest"]
	if rt.Parent != root.ID || sv.Parent != rt.ID {
		t.Errorf("chain broken: root %d ← roundtrip parent %d; roundtrip %d ← server parent %d", root.ID, rt.Parent, rt.ID, sv.Parent)
	}
	if rt.Request != root.Request || sv.Request != root.Request || root.Request != root.ID {
		t.Errorf("request ids differ: root %d, roundtrip %d, server %d", root.Request, rt.Request, sv.Request)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x", span{}))
	if nilTracer.snapshot() != nil {
		t.Error("a nil tracer recorded a span")
	}
}
