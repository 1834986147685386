// Package server is the logrd daemon: an HTTP/JSON serving layer over one
// shared durable *logr.Workload — the network front of the paper's whole
// pitch, analytics over the summary rather than the raw log.
//
// One Server multiplexes concurrent ingest and analytics over the same
// workload using the store's existing epoch/snapshot concurrency model:
// ingest batches are WAL-logged and applied under the store's ingest
// ordering, while estimation, counting and drift queries read immutable
// snapshots and summaries — a monitoring dashboard never blocks the ingest
// path and vice versa. The estimation endpoints share one cached summary
// that is refreshed incrementally (Workload.Recompress) whenever ingest
// has advanced the epoch, so a steady query stream pays clustering cost
// proportional to the delta, not the log.
//
// Endpoints (wire DTOs live in package logr/client, the protocol's single
// source of truth):
//
//	POST /ingest      batched entries: JSON {"entries":[{sql,count}]} or a
//	                  text/plain raw/compact log body; bounded body size,
//	                  429 backpressure when the ingest queue is full
//	GET  /estimate?q= frequency + count estimate from the cached summary
//	GET  /count?q=    exact containment count over the uncompressed log
//	GET  /drift       windowed drift: window segment range scored against
//	                  a baseline range's summary
//	GET  /segments    live sealed segments + active buffer size
//	POST /seal|/compact|/dropBefore   segment control
//	GET  /summary     streams the binary summary artifact (whole workload,
//	                  or ?from=&to= for a sealed range)
//	GET  /stats       Table-1-style pipeline statistics + durability gauges
//	GET  /healthz     health: 503 while the durable store is degraded
//	GET  /readyz      liveness: 200 whenever the process is serving at all
//	GET  /metrics     Prometheus text exposition of the process registry
//	                  (WAL, store, HTTP and analytics series; internal/obs)
//	GET  /debug/requests  JSON ring of recent slow or errored requests with
//	                  per-stage timings, keyed by X-Logr-Request-Id
//
// When the durable store degrades (persistent IO failure — see the logr
// package's failure model), the daemon keeps serving every read endpoint
// from memory but refuses mutations with 503 and a structured
// {"error":…, "degraded":true} body; /healthz goes 503 so load balancers
// drain ingest traffic, while /readyz stays 200 so orchestrators do not
// kill a replica that is still useful for analytics. The store's
// background probe re-arms writes automatically once the disk recovers.
//
// The serving shell around the handlers (shell.go) is shared with
// logrd-gateway: DecodeIngest turns an /ingest body into entries (400 or
// 413 on failure; JSON through internal/ingestjson), WriteJSON/WriteErr write every reply, ShellFlags
// registers the common flags, and Serve is the listen → pprof → serve →
// drain loop both daemons run.
package server

import (
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"logr"
	"logr/client"
	"logr/internal/obs"
	"logr/internal/workload"
)

// Options configure the serving layer.
type Options struct {
	// Compress are the compression options behind /estimate, /summary and
	// /drift, served as given. Only the zero value is replaced, by
	// Clusters = 8, Seed = 1.
	Compress logr.CompressOptions
	// MaxBodyBytes caps one /ingest request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxLineBytes caps one line of a text/plain ingest body, through the
	// same machinery as Options.MaxLineBytes on file loads (default 1 MiB).
	MaxLineBytes int
	// MaxConcurrentIngest bounds ingest requests decoding and applying at
	// once; excess requests are refused with 429 and a Retry-After header
	// (backpressure, not queueing — the client owns the retry policy).
	// Default: 2 × GOMAXPROCS.
	MaxConcurrentIngest int
	// Obs is the telemetry registry /metrics scrapes. Pass the same
	// registry as logr.Options.Metrics so one scrape covers the WAL, the
	// store and the serving layer (the daemon runner wires this up). Nil
	// means the server creates a private registry: /metrics still serves,
	// covering the HTTP and serving-layer series.
	Obs *obs.Registry
	// SlowRequest selects which completed requests the /debug/requests
	// ring keeps: errored requests always, plus any at least this slow.
	// 0 means obs.DefaultSlowRequest; negative records every request
	// (tracing mode — tests and incident debugging).
	SlowRequest time.Duration
}

// driftLookback is how many segments before the window form the default
// /drift baseline when the request does not pin one.
const driftLookback = 4

func (o Options) withDefaults() Options {
	if o.Compress == (logr.CompressOptions{}) {
		o.Compress = logr.CompressOptions{Clusters: 8, Seed: 1}
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.MaxConcurrentIngest <= 0 {
		o.MaxConcurrentIngest = 2 * runtime.GOMAXPROCS(0)
	}
	return o
}

// Server serves one workload. All handlers are safe for concurrent use.
type Server struct {
	w    *logr.Workload
	opts Options
	mux  *http.ServeMux

	ingestSem chan struct{}

	// telemetry: the middleware records per-route series; the handles
	// below are the serving layer's own counters, resolved once at New.
	httpm           *obs.HTTP
	ingested        *obs.Counter // entries accepted through POST /ingest
	backpressure    *obs.Counter // 429 refusals (ingest semaphore full)
	degradedRejects *obs.Counter // 503 refusals (degraded read-only mode)
	cacheHits       *obs.Counter // estimation-summary cache hits
	cacheMisses     *obs.Counter // estimation-summary cache refreshes
	sumErrNats      *obs.Gauge   // live summary Reproduction Error

	// sumMu guards the cached summary the estimation endpoints share; the
	// refresh is an incremental Recompress of the delta since the cache's
	// epoch.
	sumMu sync.Mutex
	cur   *logr.Summary
}

// New builds a server over w.
func New(w *logr.Workload, opts Options) *Server {
	opts = opts.withDefaults()
	reg := opts.Obs
	s := &Server{
		w:         w,
		opts:      opts,
		mux:       http.NewServeMux(),
		ingestSem: make(chan struct{}, opts.MaxConcurrentIngest),
		httpm:     obs.NewHTTP(reg, obs.NewRequestRing(obs.DefaultRingSize), opts.SlowRequest),
		ingested: reg.Counter("logr_ingest_queries_total",
			"Queries accepted through POST /ingest (entry multiplicities summed)."),
		backpressure: reg.Counter("logr_ingest_backpressure_total",
			"Ingest requests refused with 429 because the concurrent-ingest semaphore was full."),
		degradedRejects: reg.Counter("logr_degraded_rejections_total",
			"Mutations refused with 503 because the durable store is in degraded read-only mode."),
		cacheHits: reg.Counter("logr_summary_cache_hits_total",
			"Estimation requests served from the cached summary."),
		cacheMisses: reg.Counter("logr_summary_cache_misses_total",
			"Estimation-summary refreshes (incremental Recompress of the delta)."),
		sumErrNats: reg.Gauge("logr_summary_error_nats",
			"Reproduction Error of the live estimation summary, in nats/query (NaN until first build)."),
	}
	s.sumErrNats.Set(math.NaN())
	s.handle("POST /ingest", "/ingest", s.handleIngest)
	s.handle("GET /estimate", "/estimate", s.handleEstimate)
	s.handle("GET /count", "/count", s.handleCount)
	s.handle("GET /drift", "/drift", s.handleDrift)
	s.handle("GET /segments", "/segments", s.handleSegments)
	s.handle("POST /seal", "/seal", s.handleSeal)
	s.handle("POST /compact", "/compact", s.handleCompact)
	s.handle("POST /dropBefore", "/dropBefore", s.handleDropBefore)
	s.handle("GET /summary", "/summary", s.handleSummary)
	s.handle("GET /stats", "/stats", s.handleStats)
	s.handle("GET /healthz", "/healthz", s.handleHealth)
	s.handle("GET /readyz", "/readyz", s.handleReady)
	s.mux.Handle("GET /metrics", obs.Handler(reg))
	s.mux.Handle("GET /debug/requests", obs.RequestsHandler(s.httpm.Ring()))
	return s
}

// handle mounts h under the mux pattern, wrapped in the telemetry
// middleware with route as its metric label.
func (s *Server) handle(pattern, route string, h http.HandlerFunc) {
	s.mux.Handle(pattern, s.httpm.Wrap(route, h))
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Obs returns the server's telemetry registry (the one /metrics serves).
func (s *Server) Obs() *obs.Registry { return s.opts.Obs }

// Ring returns the /debug/requests ring.
func (s *Server) Ring() *obs.RequestRing { return s.httpm.Ring() }

// Workload returns the served workload (the daemon runner seals and closes
// it at shutdown).
func (s *Server) Workload() *logr.Workload { return s.w }

// writeDegraded refuses a mutation because the durable store is in degraded
// read-only mode: 503 with Retry-After (the store's probe re-arms writes by
// itself once the disk recovers) and a structured body a client can branch
// on without parsing the message.
func writeDegraded(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "5")
	WriteJSON(w, http.StatusServiceUnavailable, client.ErrorResponse{Error: err.Error(), Degraded: true})
}

// persisted maps a mutation's outcome: degraded read-only mode is a 503 the
// client should retry elsewhere or later; any other sticky persistence
// failure is a 500 — the WAL can no longer guarantee the acknowledged
// state, which an ingest client must not mistake for success.
func (s *Server) persisted(w http.ResponseWriter, v any) {
	if err := s.w.Err(); err != nil {
		if errors.Is(err, logr.ErrDegraded) {
			s.degradedRejects.Inc()
			writeDegraded(w, err)
			return
		}
		WriteErr(w, http.StatusInternalServerError, fmt.Errorf("persistence degraded: %w", err))
		return
	}
	WriteJSON(w, http.StatusOK, v)
}

// summary returns the shared estimation summary, incrementally refreshed
// when ingest has advanced past its epoch.
func (s *Server) summary() (*logr.Summary, error) {
	s.sumMu.Lock()
	defer s.sumMu.Unlock()
	if s.cur != nil && s.cur.Epoch().TotalQueries == s.w.Queries() {
		s.cacheHits.Inc()
		return s.cur, nil
	}
	s.cacheMisses.Inc()
	next, err := s.w.Recompress(s.cur, logr.RecompressOptions{CompressOptions: s.opts.Compress})
	if err != nil {
		return nil, err
	}
	s.cur = next
	s.sumErrNats.Set(next.Error())
	return next, nil
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	select {
	case s.ingestSem <- struct{}{}:
		defer func() { <-s.ingestSem }()
	default:
		s.backpressure.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfter()))
		WriteErr(w, http.StatusTooManyRequests, errors.New("ingest backlog full, retry later"))
		return
	}
	decodeStart := time.Now()
	entries, code, err := DecodeIngest(w, r, s.opts.MaxBodyBytes, s.opts.MaxLineBytes)
	if err != nil {
		WriteErr(w, code, err)
		return
	}
	obs.AddStage(r.Context(), "decode", time.Since(decodeStart))
	appendStart := time.Now()
	err = s.w.Append(entries)
	obs.AddStage(r.Context(), "append", time.Since(appendStart))
	if err != nil {
		if errors.Is(err, logr.ErrDegraded) {
			s.degradedRejects.Inc()
			writeDegraded(w, err)
			return
		}
		if errors.Is(err, logr.ErrQueryCap) {
			WriteErr(w, http.StatusBadRequest, fmt.Errorf("ingest refused: %w", err))
			return
		}
		WriteErr(w, http.StatusInternalServerError, fmt.Errorf("persisting ingest: %w", err))
		return
	}
	s.ingested.Add(EntryQueries(entries))
	WriteJSON(w, http.StatusOK, client.IngestResult{Entries: len(entries), TotalQueries: s.w.Queries()})
}

// retryAfter derives the 429 Retry-After hint from the durable pipeline's
// backlog: 1s when the refusal is pure request-concurrency pressure, one
// more second per quarter of the apply queue in use, capped at 8s. Clients
// arriving while the applier is drowning are told to stay away longer.
func (s *Server) retryAfter() int {
	lag := s.w.IngestLag()
	secs := 1
	if lag.QueueCap > 0 {
		secs += 4 * lag.QueuedBatches / lag.QueueCap
	}
	if secs > 8 {
		secs = 8
	}
	return secs
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		WriteErr(w, http.StatusBadRequest, errors.New("missing ?q= pattern"))
		return
	}
	sumStart := time.Now()
	sum, err := s.summary()
	obs.AddStage(r.Context(), "summary", time.Since(sumStart))
	if err != nil {
		WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	estStart := time.Now()
	freq, count, err := sum.Estimate(q)
	obs.AddStage(r.Context(), "estimate", time.Since(estStart))
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, client.EstimateResult{Frequency: freq, Count: count, Epoch: sum.Epoch()})
}

func (s *Server) handleCount(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		WriteErr(w, http.StatusBadRequest, errors.New("missing ?q= pattern"))
		return
	}
	countStart := time.Now()
	n, err := s.w.Count(q)
	obs.AddStage(r.Context(), "count", time.Since(countStart))
	if err != nil {
		// a never-seen feature is a definite zero-match answer, not a bad
		// request: 404 lets cluster gateways fold this shard in as zero
		var unk *logr.UnknownFeatureError
		if errors.As(err, &unk) {
			WriteErr(w, http.StatusNotFound, err)
			return
		}
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, client.CountResult{Count: n})
}

func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	segs := s.w.Segments()
	if len(segs) < 2 {
		WriteErr(w, http.StatusConflict, fmt.Errorf("drift needs at least 2 sealed segments, have %d", len(segs)))
		return
	}
	last := segs[len(segs)-1]
	baseLo := len(segs) - 1 - driftLookback
	if baseLo < 0 {
		baseLo = 0
	}
	var params [4]int
	defaults := [4]int{segs[baseLo].ID, last.ID, last.ID, last.EndID}
	for i, name := range []string{"baseFrom", "baseTo", "winFrom", "winTo"} {
		v, err := IntParam(r, name, defaults[i])
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err)
			return
		}
		params[i] = v
	}
	rep, err := s.w.DriftBetween(params[0], params[1], params[2], params[3], s.opts.Compress)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	WriteJSON(w, http.StatusOK, client.DriftResult{DriftReport: rep,
		BaseFrom: params[0], BaseTo: params[1], WinFrom: params[2], WinTo: params[3]})
}

func (s *Server) handleSegments(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, client.SegmentsResult{Segments: s.w.Segments(), ActiveQueries: s.w.ActiveQueries()})
}

func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	id, ok := s.w.Seal()
	s.persisted(w, client.SealResult{ID: id, Sealed: ok})
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	minQ, err := IntParam(r, "min", -1)
	if err != nil || minQ <= 0 {
		WriteErr(w, http.StatusBadRequest, errors.New("missing or bad ?min= (queries)"))
		return
	}
	n := s.w.CompactSegments(minQ)
	s.persisted(w, client.CompactResult{Eliminated: n})
}

func (s *Server) handleDropBefore(w http.ResponseWriter, r *http.Request) {
	id, err := IntParam(r, "id", -1)
	if err != nil || id < 0 {
		WriteErr(w, http.StatusBadRequest, errors.New("missing or bad ?id= (seal id)"))
		return
	}
	n := s.w.DropBefore(id)
	s.persisted(w, client.DropResult{Dropped: n})
}

func (s *Server) handleSummary(w http.ResponseWriter, r *http.Request) {
	from, err := IntParam(r, "from", -1)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	to, err := IntParam(r, "to", -1)
	if err != nil {
		WriteErr(w, http.StatusBadRequest, err)
		return
	}
	var sum *logr.Summary
	if from >= 0 || to >= 0 {
		if from < 0 || to < 0 {
			WriteErr(w, http.StatusBadRequest, errors.New("?from= and ?to= must be given together"))
			return
		}
		sum, err = s.w.CompressRange(from, to, s.opts.Compress)
		if err != nil {
			WriteErr(w, http.StatusBadRequest, err)
			return
		}
	} else if sum, err = s.summary(); err != nil {
		WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	WriteSummary(w, sum)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, client.StatsResult{
		Stats:      s.w.Stats(),
		Ingest:     s.w.IngestLag(),
		Durability: s.w.Durability(),
	})
}

// handleHealth is the health gate: 503 while the durable store is degraded,
// so load balancers stop routing ingest here (reads still work — see
// /readyz for pure liveness).
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	h := client.Health{
		Status:   "ok",
		Queries:  s.w.Queries(),
		Active:   s.w.ActiveQueries(),
		Segments: len(s.w.Segments()),
		Dir:      s.w.Dir(),
	}
	code := http.StatusOK
	if s.w.Degraded() {
		h.Status = "degraded"
		h.Degraded = true
		code = http.StatusServiceUnavailable
	}
	WriteJSON(w, code, h)
}

// handleReady is pure liveness: 200 whenever the process is serving at all,
// degraded or not. Orchestrators should restart on /readyz failure and
// drain traffic on /healthz failure — a degraded replica still answers
// every analytics read.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, client.Health{Status: "ok", Queries: s.w.Queries()})
}

// ReadIngestBody parses a text ingest body — raw one-statement-per-line or
// compact "count<TAB>sql" — through the same line-capped reader the file
// loaders use.
func ReadIngestBody(r io.Reader, maxLineBytes int) ([]logr.Entry, error) {
	raw, err := workload.ReadCompactOptions(r, workload.ReadOptions{MaxLineBytes: maxLineBytes})
	if err != nil {
		return nil, err
	}
	entries := make([]logr.Entry, len(raw))
	for i, e := range raw {
		entries[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
	}
	return entries, nil
}
