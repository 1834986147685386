package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"mime"
	"net"
	"net/http"
	"strconv"
	"sync"
	"time"

	"logr"
	"logr/client"
	"logr/internal/ingestjson"
	"logr/internal/obs"
)

// The serving shell: what logrd and logrd-gateway share around their own
// handlers — how a daemon listens, serves pprof and drains, how an /ingest
// body becomes entries, and how a reply or an error is written. The gateway
// calls these; only placement, hedging, ejection and folding are its own.

// shutdownGrace bounds the drain of in-flight requests at shutdown.
const shutdownGrace = 10 * time.Second

// Shell configures a daemon's listen/serve/drain loop.
type Shell struct {
	// Addr is the listen address (e.g. ":8080"; ":0" picks a free port).
	Addr string
	// PprofAddr, when non-empty, serves net/http/pprof on its own listener
	// and mux at this address (profiling never shares the API surface).
	// Empty means no profiling endpoint at all.
	PprofAddr string
	// OnListen, when non-nil, is invoked with the bound address once the
	// listener is up (tests and callers binding ":0" learn the port here).
	OnListen func(addr net.Addr)
	// Logf logs lifecycle events (default log.Printf).
	Logf func(format string, args ...any)
}

func (sh Shell) logf() func(format string, args ...any) {
	if sh.Logf == nil {
		return log.Printf
	}
	return sh.Logf
}

// ShellFlags registers the flags both daemons share: the shell's -addr
// (defaulting to addr) and -pprof, and the /ingest body caps -max-body and
// -max-line.
func ShellFlags(fs *flag.FlagSet, addr string, sh *Shell, maxBody *int64, maxLine *int) {
	fs.StringVar(&sh.Addr, "addr", addr, "listen address")
	fs.StringVar(&sh.PprofAddr, "pprof", "", "serve net/http/pprof on this address (own listener, e.g. localhost:6060; empty = off)")
	fs.Int64Var(maxBody, "max-body", 32<<20, "max /ingest body bytes")
	fs.IntVar(maxLine, "max-line", 0, "max bytes per text-ingest line (0 = 1 MiB)")
}

// Serve serves h on sh.Addr, and pprof on sh.PprofAddr when set, until ctx
// is canceled (the signal-aware callers cancel on SIGINT/SIGTERM) or the
// listener fails. On cancellation in-flight requests drain within
// shutdownGrace, then drained runs (when non-nil) before Serve returns.
// name prefixes the lifecycle log lines. A clean shutdown returns nil.
func Serve(ctx context.Context, sh Shell, name string, h http.Handler, drained func()) error {
	logf := sh.logf()
	ln, err := net.Listen("tcp", sh.Addr)
	if err != nil {
		return err
	}
	if sh.OnListen != nil {
		sh.OnListen(ln.Addr())
	}
	logf("%s: listening on %s", name, ln.Addr())
	if sh.PprofAddr != "" {
		pln, err := net.Listen("tcp", sh.PprofAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("pprof listener: %w", err)
		}
		ps := &http.Server{Handler: obs.PprofMux()}
		go ps.Serve(pln)
		defer ps.Close()
		logf("%s: pprof on %s", name, pln.Addr())
	}

	hs := &http.Server{Handler: h}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err = <-serveErr:
	case <-ctx.Done():
		logf("%s: shutting down: draining requests", name)
		shutCtx, cancel := context.WithTimeout(context.Background(), shutdownGrace)
		err = hs.Shutdown(shutCtx)
		cancel()
	}
	if drained != nil {
		drained()
	}
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// DecodeIngest reads an /ingest request body into entries. The media type
// picks the codec: none or application/json (any parameters, any casing)
// is a client.IngestRequest, anything else a raw or compact log body read
// through ReadIngestBody with lines capped at maxLine. A JSON body is read
// whole into a pooled buffer sized from Content-Length and decoded by
// decodeJSON, so it is one JSON object with nothing after it but
// whitespace. On failure it returns the status to answer: 413 for a body
// past maxBody, 400 for a malformed Content-Type or body.
func DecodeIngest(w http.ResponseWriter, r *http.Request, maxBody int64, maxLine int) ([]logr.Entry, int, error) {
	body := http.MaxBytesReader(w, r.Body, maxBody)
	mediaType := ""
	if ct := r.Header.Get("Content-Type"); ct != "" {
		mt, _, err := mime.ParseMediaType(ct)
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("bad Content-Type %q: %w", ct, err)
		}
		mediaType = mt
	}
	if mediaType == "" || mediaType == "application/json" {
		buf := bodyPool.Get().(*bytes.Buffer)
		defer func() {
			if buf.Cap() <= maxPooledBody {
				buf.Reset()
				bodyPool.Put(buf)
			}
		}()
		// room for the body and for the read that meets its end; a
		// Content-Length past maxPooledBody grows the buffer as bytes arrive,
		// so a header alone cannot make the daemon allocate much
		if n := min(r.ContentLength, maxBody, maxPooledBody); n > 0 {
			buf.Grow(int(n) + bytes.MinRead)
		}
		if _, err := buf.ReadFrom(body); err != nil {
			return nil, badBodyStatus(err), fmt.Errorf("decoding ingest body: %w", err)
		}
		entries, err := decodeJSON(buf.Bytes())
		if err != nil {
			return nil, http.StatusBadRequest, fmt.Errorf("decoding ingest body: %w", err)
		}
		return entries, 0, nil
	}
	entries, err := ReadIngestBody(body, maxLine)
	if err != nil {
		return nil, badBodyStatus(err), fmt.Errorf("reading ingest body: %w", err)
	}
	return entries, 0, nil
}

// bodyPool recycles the buffers JSON /ingest bodies are read into; a
// buffer grown past maxPooledBody is left to the collector.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 1 << 20

// decodeJSON decodes a JSON /ingest body: through ingestjson.Decode, and
// when the body lies outside the subset that reads, through encoding/json
// on the same bytes, which also words the error for a refused body. Data
// after the object is refused, where json.Decoder would read the first
// value and ignore the rest.
func decodeJSON(body []byte) ([]logr.Entry, error) {
	if entries, ok := ingestjson.Decode(body); ok {
		return entries, nil
	}
	var req client.IngestRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if off := dec.InputOffset(); len(bytes.TrimLeft(body[off:], " \t\r\n")) > 0 {
		return nil, fmt.Errorf("data after the JSON object at offset %d", off)
	}
	return req.Entries, nil
}

// badBodyStatus distinguishes an oversized body (413) from a malformed one
// (400).
func badBodyStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// EntryQueries sums entry multiplicities the way the workload counts them:
// a non-positive Count ingests as one occurrence.
func EntryQueries(entries []logr.Entry) int64 {
	var n int64
	for _, e := range entries {
		n += int64(max(e.Count, 1))
	}
	return n
}

// WriteJSON writes v as a JSON reply with status code.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// WriteSummary writes sum as a /summary reply: the binary artifact, with
// its cluster count, epoch and Reproduction Error in X-Logr-* headers. The
// artifact cannot carry its Error (no ground truth travels with it); the
// header lets readers — the gateway's cross-shard merge above all —
// re-attach it via Summary.WithError. Headers the caller set beforehand go
// out with the reply.
func WriteSummary(w http.ResponseWriter, sum *logr.Summary) {
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set("X-Logr-Clusters", strconv.Itoa(sum.Clusters()))
	h.Set("X-Logr-Epoch-Universe", strconv.Itoa(sum.Epoch().Universe))
	h.Set("X-Logr-Epoch-Queries", strconv.Itoa(sum.Epoch().TotalQueries))
	if e := sum.Error(); !math.IsNaN(e) {
		h.Set("X-Logr-Err", strconv.FormatFloat(e, 'g', -1, 64))
	}
	sum.Save(w)
}

// WriteErr writes err as a client.ErrorResponse with status code.
func WriteErr(w http.ResponseWriter, code int, err error) {
	WriteJSON(w, code, client.ErrorResponse{Error: err.Error()})
}

// IntParam parses an optional integer query parameter, def when absent.
func IntParam(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, fmt.Errorf("bad ?%s=%q", name, v)
	}
	return n, nil
}
