package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestMiddlewareRecordsStatusAndBytes(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTP(reg, NewRequestRing(8), -1) // slow<0: ring keeps everything
	h := m.Wrap("/thing", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		AddStage(r.Context(), "work", 5*time.Millisecond)
		w.WriteHeader(http.StatusTeapot)
		w.Write([]byte("short and stout"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/thing", nil))

	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Error("response must echo a minted request id")
	}
	if got := reg.Counter("logr_http_requests_total", "", "route", "/thing", "code", "418").Value(); got != 1 {
		t.Errorf("requests_total{418} = %d, want 1", got)
	}
	if got := reg.Counter("logr_http_response_bytes_total", "", "route", "/thing").Value(); got != uint64(len("short and stout")) {
		t.Errorf("response_bytes_total = %d", got)
	}
	ents := m.Ring().Snapshot()
	if len(ents) != 1 || ents[0].Route != "/thing" || ents[0].Status != 418 {
		t.Fatalf("ring = %+v", ents)
	}
	if len(ents[0].Stages) != 1 || ents[0].Stages[0].Name != "work" {
		t.Errorf("stages = %+v", ents[0].Stages)
	}
}

func TestMiddlewareAdoptsIncomingRequestID(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTP(reg, nil, -1)
	var sawID string
	h := m.Wrap("/x", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sawID = RequestIDFrom(r.Context())
	}))
	req := httptest.NewRequest("GET", "/x", nil)
	req.Header.Set(RequestIDHeader, "deadbeefdeadbeef")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if sawID != "deadbeefdeadbeef" {
		t.Errorf("handler saw id %q", sawID)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "deadbeefdeadbeef" {
		t.Errorf("response echoed %q", got)
	}
}

// TestMiddlewareImplicit200AndStream checks a handler that never calls
// WriteHeader: Write must imply 200 and streamed Flush must pass through.
func TestMiddlewareImplicit200AndStream(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTP(reg, NewRequestRing(4), -1)
	h := m.Wrap("/stream", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("chunk1"))
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		} else {
			t.Error("middleware must pass Flush through")
		}
		w.Write([]byte("chunk2"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/stream", nil))
	if !rec.Flushed {
		t.Error("Flush did not reach the recorder")
	}
	if got := reg.Counter("logr_http_requests_total", "", "route", "/stream", "code", "200").Value(); got != 1 {
		t.Errorf("requests_total{200} = %d, want 1", got)
	}
	if got := reg.Counter("logr_http_response_bytes_total", "", "route", "/stream").Value(); got != 12 {
		t.Errorf("response_bytes_total = %d, want 12", got)
	}
}

// TestMiddlewareHijack drives a real connection through a hijacking
// handler: the middleware must pass Hijack through and record the request
// as 101 when the handler never wrote a header.
func TestMiddlewareHijack(t *testing.T) {
	reg := NewRegistry()
	m := NewHTTP(reg, NewRequestRing(4), -1)
	wrapped := m.Wrap("/hijack", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hj, ok := w.(http.Hijacker)
		if !ok {
			t.Error("middleware must pass Hijack through")
			return
		}
		conn, buf, err := hj.Hijack()
		if err != nil {
			t.Errorf("Hijack: %v", err)
			return
		}
		buf.WriteString("HTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n")
		buf.Flush()
		conn.Close()
	}))
	// the client sees the hijacked reply before the middleware records
	// the request, so wait for the wrapped handler to return
	served := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		wrapped.ServeHTTP(w, r)
		close(served)
	}))
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/hijack")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	<-served
	if got := reg.Counter("logr_http_requests_total", "", "route", "/hijack", "code", "101").Value(); got != 1 {
		t.Errorf("hijacked request must record as 101, counter = %d", got)
	}
}

func TestRingEvictionOrder(t *testing.T) {
	ring := NewRequestRing(3)
	for i := 1; i <= 5; i++ {
		ring.Add(RequestEntry{ID: fmt.Sprintf("req-%d", i)})
	}
	snap := ring.Snapshot()
	var got []string
	for _, e := range snap {
		got = append(got, e.ID)
	}
	want := []string{"req-5", "req-4", "req-3"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("snapshot = %v, want %v (newest first, oldest evicted)", got, want)
	}
}

func TestRequestsHandler(t *testing.T) {
	ring := NewRequestRing(2)
	ring.Add(RequestEntry{ID: "aa", Route: "/ingest", Status: 500})
	rec := httptest.NewRecorder()
	RequestsHandler(ring).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/requests", nil))
	var out struct {
		Requests []RequestEntry `json:"requests"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
		t.Fatalf("decoding: %v", err)
	}
	if len(out.Requests) != 1 || out.Requests[0].ID != "aa" || out.Requests[0].Status != 500 {
		t.Errorf("requests = %+v", out.Requests)
	}
}

func TestMetricsHandlerContentType(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("one_total", "One.").Inc()
	rec := httptest.NewRecorder()
	Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "one_total 1\n") {
		t.Errorf("body:\n%s", rec.Body.String())
	}
}
