package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing, recorded only from the benchmark's own files: around the calls
// into each layer (client call, transport round trip, server handler,
// gateway-to-shard call, layer replay). Spans stay in memory and are
// written out when the run ends. A nil *tracer records nothing, and an
// untraced run installs none of the wrappers below, so the end-to-end
// numbers carry no tracing cost.

// span is one timed interval. Times are nanoseconds since the trace began.
// Parent is the span that caused this one (0 for a root); spans of one
// request share Request.
type span struct {
	ID      int64  `json:"id"`
	Name    string `json:"name"`
	Start   int64  `json:"start"`
	End     int64  `json:"end"`
	Parent  int64  `json:"parent"`
	Request int64  `json:"request"`
}

type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent; the zero parent starts a new request.
func (t *tracer) begin(name string, parent span) span {
	if t == nil {
		return span{}
	}
	s := span{ID: t.next.Add(1), Name: name, Parent: parent.ID, Request: parent.Request}
	if s.Request == 0 {
		s.Request = s.ID
	}
	s.Start = int64(time.Since(t.t0))
	return s
}

func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Overlapping children count once
// and a child reaching outside its parent counts only inside it.
func selfTimes(spans []span) map[int64]int64 {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, at := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, at), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				at = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// spanStats aggregates the spans of one name: durations and self times in
// milliseconds.
type spanStats struct {
	dur, self []float64
}

func aggregate(spans []span) map[string]*spanStats {
	self := selfTimes(spans)
	out := map[string]*spanStats{}
	for _, s := range spans {
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		st.dur = append(st.dur, float64(s.End-s.Start)/1e6)
		st.self = append(st.self, float64(self[s.ID])/1e6)
	}
	return out
}

// Span propagation: inside the process through the context, across the
// loopback connection through a header the server middleware reads back.

type spanKey struct{}

const spanHeader = "X-Bench-Span"

func withSpan(ctx context.Context, s span) context.Context {
	return context.WithValue(ctx, spanKey{}, s)
}

func spanFrom(ctx context.Context) span {
	s, _ := ctx.Value(spanKey{}).(span)
	return s
}

// spanTransport records one span per round trip, named after the path it
// calls, a child of the span in the request's context, and hands its
// identity to the far side.
type spanTransport struct {
	base http.RoundTripper
	tr   *tracer
	name string
}

func (st *spanTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	s := st.tr.begin(st.name+req.URL.Path, spanFrom(req.Context()))
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(s.ID, 10)+"/"+strconv.FormatInt(s.Request, 10))
	resp, err := st.base.RoundTrip(req)
	st.tr.end(s)
	return resp, err
}

// spanMiddleware records one span per handled request, named after the
// route, and puts it in the request context so that calls the handler
// makes through a spanTransport (the gateway's fan-out) become its
// children.
func spanMiddleware(tr *tracer, prefix string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var parent span
		if id, req, ok := strings.Cut(r.Header.Get(spanHeader), "/"); ok {
			parent.ID, _ = strconv.ParseInt(id, 10, 64)
			parent.Request, _ = strconv.ParseInt(req, 10, 64)
		}
		s := tr.begin(prefix+r.URL.Path, parent)
		next.ServeHTTP(w, r.WithContext(withSpan(r.Context(), s)))
		tr.end(s)
	})
}
