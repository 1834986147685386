// Package client is the Go client for the logrd workload-analytics daemon
// (internal/server, cmd/logrd, `logr serve`): a thin typed wrapper over its
// HTTP/JSON API. The wire DTOs defined here, with the library types they
// carry, are the protocol's single source of truth — the server marshals
// and unmarshals exactly these types.
//
//	c := client.New("http://localhost:8080")
//	c.Ingest(ctx, []logr.Entry{{SQL: "SELECT ...", Count: 3}})
//	est, _ := c.Estimate(ctx, "SELECT _id FROM messages WHERE status = ?")
//	sum, _ := c.Summary(ctx) // a full *logr.Summary, usable offline
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"logr"
	"logr/internal/ingestjson"
	"logr/internal/obs"
)

// Client talks to one logrd daemon. The zero value is not usable; construct
// with New. Methods are safe for concurrent use (the underlying
// *http.Client is).
type Client struct {
	base string
	hc   *http.Client

	// timeout bounds one non-streaming request when the caller's context
	// carries no deadline of its own; see WithTimeout.
	timeout time.Duration

	// retryOn429/maxRetries implement the daemon's backpressure contract:
	// a 429 means "the ingest queue is full, come back after Retry-After" —
	// opt in via WithRetryOn429.
	retryOn429 bool
	maxRetries int
}

// DefaultTimeout bounds every non-streaming request whose context has no
// deadline, so a hung daemon or a black-holed connection surfaces as an
// error instead of blocking the caller forever. Override with WithTimeout.
const DefaultTimeout = 30 * time.Second

// DefaultTransport is the pooled *http.Transport every client built by New
// shares. One shared pool matters for fan-out callers — the gateway holds
// a client per shard, and without a shared transport each would open fresh
// connections per burst (the net/http zero value keeps only 2 idle conns
// per host). Keep-alives stay on and the per-host idle pool is sized for a
// wide scatter-gather so repeated fan-outs reuse warm connections.
var DefaultTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// defaultClient wraps DefaultTransport once; New hands the same
// *http.Client to every Client so the connection pool is genuinely shared.
var defaultClient = &http.Client{Transport: DefaultTransport}

// New returns a client for the daemon at base (e.g. "http://host:8080").
// All clients built here share DefaultTransport's connection pool; use
// WithTransport (or WithHTTPClient) for per-client transport tuning. The
// default timeout is DefaultTimeout applied per request.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), hc: defaultClient, timeout: DefaultTimeout}
}

// WithHTTPClient returns a copy of c that uses hc for every request.
func (c *Client) WithHTTPClient(hc *http.Client) *Client {
	cp := *c
	cp.hc = hc
	return &cp
}

// WithTransport returns a copy of c whose requests go through rt instead
// of the shared DefaultTransport — connection-pool isolation for tests and
// fan-out tuning for gateways (e.g. MaxIdleConnsPerHost sized to the shard
// fan-out).
func (c *Client) WithTransport(rt http.RoundTripper) *Client {
	cp := *c
	cp.hc = &http.Client{Transport: rt}
	return &cp
}

// WithTimeout returns a copy of c whose non-streaming requests carry a
// per-request deadline of d whenever the caller's context has none (d <= 0
// disables the default entirely). Streaming calls — IngestReader's upload
// and SummaryRaw's download — are exempt: their duration scales with the
// data, not the round trip; bound them with a context deadline instead.
func (c *Client) WithTimeout(d time.Duration) *Client {
	cp := *c
	cp.timeout = d
	return &cp
}

// WithRetryOn429 returns a copy of c that retries a request refused with
// HTTP 429 up to maxRetries more times, sleeping the server's Retry-After
// hint (exponential backoff when absent) with ±25% jitter so synchronized
// clients spread out; each wait is capped at 30s and aborts when the
// request context does. Only requests whose bodies the client can replay
// retry — IngestReader streams its body and always surfaces the 429.
func (c *Client) WithRetryOn429(maxRetries int) *Client {
	cp := *c
	cp.retryOn429 = true
	cp.maxRetries = maxRetries
	return &cp
}

// retryWait turns a 429's Retry-After header (attempt used as the backoff
// exponent when the header is absent or malformed) into a jittered wait.
func retryWait(header string, attempt int) time.Duration {
	d := time.Second << uint(min(attempt, 5))
	if s, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && s >= 0 {
		d = time.Duration(s) * time.Second
	}
	if d == 0 {
		return 0
	}
	d = d - d/4 + time.Duration(rand.Int63n(int64(d)/2+1))
	if d > 30*time.Second {
		d = 30 * time.Second
	}
	return d
}

// send issues a request, retrying on 429 when the client opted in.
// makeBody, when non-nil, returns a fresh reader per attempt (a replayable
// body); oneShot, when non-nil, is a streaming body the first attempt
// consumes, so such requests never retry. Both nil means no body.
func (c *Client) send(ctx context.Context, method, u, contentType string, makeBody func() io.Reader, oneShot io.Reader) (*http.Response, error) {
	for attempt := 0; ; attempt++ {
		var body io.Reader
		switch {
		case makeBody != nil:
			body = makeBody()
		case oneShot != nil:
			body = oneShot
		}
		req, err := http.NewRequestWithContext(ctx, method, u, body)
		if err != nil {
			return nil, err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		// propagate the request id when an obs-traced handler (gateway
		// fan-out) is the caller, so one id follows the whole request tree
		if id := obs.RequestIDFrom(ctx); id != "" {
			req.Header.Set(obs.RequestIDHeader, id)
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			return nil, err
		}
		canRetry := c.retryOn429 && attempt < c.maxRetries && (makeBody != nil || oneShot == nil)
		if resp.StatusCode != http.StatusTooManyRequests || !canRetry {
			return resp, nil
		}
		wait := retryWait(resp.Header.Get("Retry-After"), attempt)
		io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
		resp.Body.Close()
		if wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-ctx.Done():
				t.Stop()
				return nil, ctx.Err()
			case <-t.C:
			}
		}
	}
}

// Wire DTOs. Field names are the protocol; both ends marshal these. The
// payloads the library already defines (logr.Stats, logr.IngestLag,
// logr.DurabilityInfo, logr.Epoch, logr.SegmentInfo, logr.DriftReport)
// carry their own JSON tags and appear here as fields or embedded structs.

// Health is GET /healthz (and /readyz). /healthz answers 503 with
// Status "degraded" while the durable store refuses writes; /readyz stays
// 200 as long as the process serves at all.
type Health struct {
	Status   string `json:"status"`
	Queries  int    `json:"queries"`
	Active   int    `json:"active_queries"`
	Segments int    `json:"segments"`
	Dir      string `json:"dir,omitempty"`
	Degraded bool   `json:"degraded,omitempty"`
}

// IngestRequest is the JSON body of POST /ingest. Ingest encodes it and the
// daemons decode it with internal/ingestjson, without reflection, to the
// same bytes and values encoding/json gives.
type IngestRequest struct {
	Entries []logr.Entry `json:"entries"`
}

// IngestResult is the response of POST /ingest.
type IngestResult struct {
	// Entries is how many request entries were accepted this call.
	Entries int `json:"entries"`
	// TotalQueries is the workload's query total after the ingest.
	TotalQueries int `json:"total_queries"`
}

// EstimateResult is GET /estimate.
type EstimateResult struct {
	Frequency float64    `json:"frequency"`
	Count     float64    `json:"count"`
	Epoch     logr.Epoch `json:"epoch"`
}

// CountResult is GET /count.
type CountResult struct {
	Count int `json:"count"`
}

// SealResult is POST /seal.
type SealResult struct {
	ID     int  `json:"id"`
	Sealed bool `json:"sealed"`
}

// CompactResult is POST /compact.
type CompactResult struct {
	Eliminated int `json:"eliminated"`
}

// DropResult is POST /dropBefore.
type DropResult struct {
	Dropped int `json:"dropped"`
}

// SegmentsResult is GET /segments.
type SegmentsResult struct {
	Segments      []logr.SegmentInfo `json:"segments"`
	ActiveQueries int                `json:"active_queries"`
}

// DriftResult is GET /drift: the window range [WinFrom, WinTo) scored
// against the summary of the baseline range [BaseFrom, BaseTo), in seal
// ids. A gateway's aggregate reports the bounds its shards resolved, or -1
// for a bound on which the shards disagree (seal ids are per shard).
type DriftResult struct {
	logr.DriftReport
	BaseFrom int `json:"base_from"`
	BaseTo   int `json:"base_to"`
	WinFrom  int `json:"win_from"`
	WinTo    int `json:"win_to"`
}

// StatsResult is GET /stats: the Table-1-style pipeline statistics plus
// the durable pipeline's gauges. distinct_queries counts distinct raw
// statements exactly up to a 64-bit hash collision; there is no
// with-constants feature count, which is an offline pass (`logr stats`).
type StatsResult struct {
	logr.Stats
	// Ingest reports the durable pipeline's backlog: apply-queue depth and
	// how far the applier trails the acknowledged WAL offset. All-zero for
	// in-memory workloads.
	Ingest logr.IngestLag `json:"ingest"`
	// Durability reports the WAL/checkpoint state behind bounded recovery
	// and whether the store is serving in degraded read-only mode.
	// All-zero for in-memory workloads.
	Durability logr.DurabilityInfo `json:"durability"`
}

// ErrorResponse is every non-2xx JSON body. Degraded marks a refusal by a
// store in degraded read-only mode (503): the daemon still serves reads,
// and its background probe re-arms writes once the disk recovers, so the
// right client move is to retry later or ingest elsewhere.
type ErrorResponse struct {
	Error    string `json:"error"`
	Degraded bool   `json:"degraded,omitempty"`
}

// APIError is a non-2xx daemon response surfaced as a Go error. Degraded
// mirrors the response body's flag; errors.As plus this field is how a
// caller distinguishes "store is read-only right now" from a real failure.
type APIError struct {
	StatusCode int
	Message    string
	Degraded   bool
	// RequestID echoes the X-Logr-Request-Id response header when the
	// daemon set one — the key for finding the request in the server's
	// GET /debug/requests ring.
	RequestID string
}

func (e *APIError) Error() string {
	if e.RequestID != "" {
		return fmt.Sprintf("logrd: %s (HTTP %d, request %s)", e.Message, e.StatusCode, e.RequestID)
	}
	return fmt.Sprintf("logrd: %s (HTTP %d)", e.Message, e.StatusCode)
}

// do issues a request and decodes a JSON response into out (when non-nil).
// Buffered bodies (bytes.Buffer / bytes.Reader) are replayable, so they
// participate in 429 retries; any other reader is one-shot.
func (c *Client) do(ctx context.Context, method, path string, query url.Values, contentType string, body io.Reader, out any) error {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var makeBody func() io.Reader
	switch b := body.(type) {
	case *bytes.Buffer:
		data := b.Bytes()
		makeBody = func() io.Reader { return bytes.NewReader(data) }
		body = nil
	case *bytes.Reader:
		data := make([]byte, b.Len())
		b.Read(data)
		makeBody = func() io.Reader { return bytes.NewReader(data) }
		body = nil
	}
	// any reader left in body streams, and a stream's duration scales with
	// the data — only round-trip-shaped requests get the default deadline
	if body == nil && c.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, c.timeout)
			defer cancel()
		}
	}
	resp, err := c.send(ctx, method, u, contentType, makeBody, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

func decodeError(resp *http.Response) error {
	var er ErrorResponse
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if json.Unmarshal(data, &er) != nil || er.Error == "" {
		er.Error = strings.TrimSpace(string(data))
		if er.Error == "" {
			er.Error = resp.Status
		}
	}
	return &APIError{
		StatusCode: resp.StatusCode,
		Message:    er.Error,
		Degraded:   er.Degraded,
		RequestID:  resp.Header.Get(obs.RequestIDHeader),
	}
}

// Health checks the daemon.
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/healthz", nil, "", nil, &h)
	return h, err
}

// Stats fetches the Table-1-style pipeline statistics.
func (c *Client) Stats(ctx context.Context) (StatsResult, error) {
	var s StatsResult
	err := c.do(ctx, http.MethodGet, "/stats", nil, "", nil, &s)
	return s, err
}

// Ingest appends a batch of entries. The body is the IngestRequest
// encoding/json's Encoder writes with SetEscapeHTML(false), so the `<`,
// `>` and `&` of SQL predicates travel unescaped; it is built without
// reflection into one presized buffer, and a 429 retry resends the same
// bytes.
func (c *Client) Ingest(ctx context.Context, entries []logr.Entry) (IngestResult, error) {
	// a fresh buffer per call: the transport may still be reading a request
	// body after the round trip returns, so it is never pooled
	body := ingestjson.Append(nil, entries)
	var r IngestResult
	err := c.do(ctx, http.MethodPost, "/ingest", nil, "application/json", bytes.NewBuffer(body), &r)
	return r, err
}

// IngestReader streams a raw or compact ("count<TAB>sql") log file body;
// the daemon parses it with its configured line limits. The upload is
// exempt from the client's default timeout (its duration scales with the
// data) but honors ctx end to end: cancellation aborts the request and
// stops the body stream between chunks.
func (c *Client) IngestReader(ctx context.Context, r io.Reader) (IngestResult, error) {
	var res IngestResult
	err := c.do(ctx, http.MethodPost, "/ingest", nil, "text/plain", &ctxReader{ctx: ctx, r: r}, &res)
	return res, err
}

// ctxReader makes a streaming request body observe context cancellation
// even when the transport is between reads: each Read checks ctx first, so
// a cancelled upload stops feeding data promptly instead of draining the
// source to the end.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (cr *ctxReader) Read(p []byte) (int, error) {
	if err := cr.ctx.Err(); err != nil {
		return 0, err
	}
	return cr.r.Read(p)
}

// Estimate asks the summary for a pattern's frequency and count.
func (c *Client) Estimate(ctx context.Context, pattern string) (EstimateResult, error) {
	var r EstimateResult
	err := c.do(ctx, http.MethodGet, "/estimate", url.Values{"q": {pattern}}, "", nil, &r)
	return r, err
}

// Count asks for the exact containment count over the uncompressed log.
func (c *Client) Count(ctx context.Context, pattern string) (int, error) {
	var r CountResult
	err := c.do(ctx, http.MethodGet, "/count", url.Values{"q": {pattern}}, "", nil, &r)
	return r.Count, err
}

// Seal freezes the active buffer into a segment.
func (c *Client) Seal(ctx context.Context) (SealResult, error) {
	var r SealResult
	err := c.do(ctx, http.MethodPost, "/seal", nil, "", nil, &r)
	return r, err
}

// Compact merges runs of adjacent segments smaller than minQueries.
func (c *Client) Compact(ctx context.Context, minQueries int) (CompactResult, error) {
	var r CompactResult
	err := c.do(ctx, http.MethodPost, "/compact", url.Values{"min": {strconv.Itoa(minQueries)}}, "", nil, &r)
	return r, err
}

// DropBefore retires segments entirely before seal id.
func (c *Client) DropBefore(ctx context.Context, id int) (DropResult, error) {
	var r DropResult
	err := c.do(ctx, http.MethodPost, "/dropBefore", url.Values{"id": {strconv.Itoa(id)}}, "", nil, &r)
	return r, err
}

// Segments lists the live sealed segments.
func (c *Client) Segments(ctx context.Context) (SegmentsResult, error) {
	var r SegmentsResult
	err := c.do(ctx, http.MethodGet, "/segments", nil, "", nil, &r)
	return r, err
}

// Drift scores the window segment range against the baseline range's
// summary. Negative bounds select the daemon's defaults (window = newest
// segment, baseline = the preceding lookback segments).
func (c *Client) Drift(ctx context.Context, baseFrom, baseTo, winFrom, winTo int) (DriftResult, error) {
	q := url.Values{}
	set := func(k string, v int) {
		if v >= 0 {
			q.Set(k, strconv.Itoa(v))
		}
	}
	set("baseFrom", baseFrom)
	set("baseTo", baseTo)
	set("winFrom", winFrom)
	set("winTo", winTo)
	var r DriftResult
	err := c.do(ctx, http.MethodGet, "/drift", q, "", nil, &r)
	return r, err
}

// SummaryRaw streams the binary summary artifact to w and returns the byte
// count. Both from and to < 0 selects the whole-workload summary;
// otherwise both must name the sealed segment range [from, to) — a
// one-sided pair is an error (matching the server), not a silent fallback
// to the whole workload.
func (c *Client) SummaryRaw(ctx context.Context, w io.Writer, from, to int) (int64, error) {
	n, _, err := c.SummaryRawMeta(ctx, w, from, to)
	return n, err
}

// SummaryMeta is the /summary response metadata the daemon reports in
// X-Logr-* headers alongside the binary artifact.
type SummaryMeta struct {
	// Clusters is the mixture's component count.
	Clusters int
	// Epoch is the snapshot version the summary covers.
	Epoch logr.Epoch
	// Err is the summary's Generalized Reproduction Error in nats — the
	// ground truth the artifact itself cannot carry. NaN when the server
	// did not report one.
	Err float64
}

// SummaryRawMeta is SummaryRaw plus the X-Logr-* response metadata. The
// Err field lets a reader re-attach the Reproduction Error to the restored
// summary (logr.ReadSummary marks it NaN): the gateway's cross-shard merge
// uses exactly this to keep merged error bookkeeping exact.
func (c *Client) SummaryRawMeta(ctx context.Context, w io.Writer, from, to int) (int64, SummaryMeta, error) {
	meta := SummaryMeta{Err: math.NaN()}
	if (from >= 0) != (to >= 0) {
		return 0, meta, fmt.Errorf("logrd: summary range needs both from and to (got from=%d, to=%d)", from, to)
	}
	q := url.Values{}
	if from >= 0 && to >= 0 {
		q.Set("from", strconv.Itoa(from))
		q.Set("to", strconv.Itoa(to))
	}
	u := c.base + "/summary"
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	resp, err := c.send(ctx, http.MethodGet, u, "", nil, nil)
	if err != nil {
		return 0, meta, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return 0, meta, decodeError(resp)
	}
	meta.Clusters, _ = strconv.Atoi(resp.Header.Get("X-Logr-Clusters"))
	meta.Epoch.Universe, _ = strconv.Atoi(resp.Header.Get("X-Logr-Epoch-Universe"))
	meta.Epoch.TotalQueries, _ = strconv.Atoi(resp.Header.Get("X-Logr-Epoch-Queries"))
	if h := resp.Header.Get("X-Logr-Err"); h != "" {
		if e, perr := strconv.ParseFloat(h, 64); perr == nil {
			meta.Err = e
		}
	}
	n, err := io.Copy(w, resp.Body)
	return n, meta, err
}

// Summary fetches the binary artifact and restores it as a *logr.Summary:
// estimation, visualization and the analytics applications then run
// client-side, with no further daemon round trips.
func (c *Client) Summary(ctx context.Context) (*logr.Summary, error) {
	return c.summary(ctx, -1, -1)
}

// SummaryRange is Summary over the sealed segment range [from, to).
func (c *Client) SummaryRange(ctx context.Context, from, to int) (*logr.Summary, error) {
	return c.summary(ctx, from, to)
}

func (c *Client) summary(ctx context.Context, from, to int) (*logr.Summary, error) {
	var buf bytes.Buffer
	if _, err := c.SummaryRaw(ctx, &buf, from, to); err != nil {
		return nil, err
	}
	return logr.ReadSummary(&buf)
}

// Cluster DTOs — the logrd-gateway's wire protocol. Every gateway
// response is a superset of the matching single-node DTO (the extra
// fields ride alongside the embedded struct), so a plain Client pointed
// at a gateway keeps working; decode into these types to see the
// cluster-only annotations. Per route, the single-node fields carry:
//
//	POST /ingest      Entries accepted; TotalQueries the cluster total; a
//	                  shard refusing its part (a node answers 400 past its
//	                  2^50-query cap) counts as failed, and its entries
//	                  spill (see ClusterIngestResult)
//	GET  /estimate    an estimate from the merged cross-shard summary
//	GET  /count       the sum of the shards' exact counts
//	GET  /stats       Queries and Unparseable summed; each shard's own
//	                  hash-exact distinct_queries, and no features field
//	GET  /segments    the shards' segment lists concatenated (seal ids are
//	                  per shard, so ids may repeat); ActiveQueries summed
//	GET  /drift       Score and NoveltyRate weighted by shard query totals;
//	                  Alert if any shard alerts; each range bound the one
//	                  every shard resolved, -1 where they disagree
//	GET  /summary     the merged summary; ?from/?to answer 400 (seal ids
//	                  are per shard: ask a shard for a range)
//	GET  /healthz     Queries summed over the prober's per-shard view;
//	                  Active and Segments summed over the admitted shards
//	POST /seal        Sealed if any shard sealed; ID the largest sealed id
//	POST /compact     Eliminated summed
//	POST /dropBefore  Dropped summed (each shard applies the same id)
//
// The partial-result contract: a route answers 200 with the reachable
// shards' data as long as at least one shard responded, and Unavailable
// lists the shard base URLs that did not contribute (ejected or failed
// mid-request). Only when every shard is unreachable does the gateway
// answer 502.

// ClusterIngestResult is the gateway's POST /ingest response.
type ClusterIngestResult struct {
	IngestResult
	// Spilled counts entries routed past their rendezvous owner to a
	// fallback shard because the owner was ejected or refused the batch.
	Spilled int `json:"spilled,omitempty"`
	// Unavailable lists shards that could not accept their partition
	// (their entries were spilled or, if Rejected > 0, lost).
	Unavailable []string `json:"shards_unavailable,omitempty"`
	// Rejected counts entries no healthy shard would accept or their
	// owner refused with a 4xx other than 429; > 0 only on a 502
	// response.
	Rejected int `json:"rejected,omitempty"`
}

// ClusterEstimateResult is the gateway's GET /estimate response: an
// estimate from the merged cross-shard summary.
type ClusterEstimateResult struct {
	EstimateResult
	// Err, when present, is the merged summary's Reproduction Error in
	// nats (exact for the lossless merge; an upper bound once the
	// gateway's component budget forces coalescing).
	Err *float64 `json:"err,omitempty"`
	// Shards is how many shard summaries the merge covered.
	Shards      int      `json:"shards"`
	Unavailable []string `json:"shards_unavailable,omitempty"`
}

// ClusterCountResult is the gateway's GET /count response: the sum of
// the reachable shards' exact counts.
type ClusterCountResult struct {
	CountResult
	Unavailable []string `json:"shards_unavailable,omitempty"`
}

// ClusterDriftResult is the gateway's GET /drift response: per-shard
// drift reports plus a query-weighted aggregate.
type ClusterDriftResult struct {
	DriftResult
	Shards      map[string]DriftResult `json:"shards"`
	Unavailable []string               `json:"shards_unavailable,omitempty"`
}

// ClusterStatsResult is the gateway's GET /stats response: summed
// cluster totals plus each shard's full statistics payload.
type ClusterStatsResult struct {
	// Queries and Unparseable are summed across reachable shards;
	// distinct-query counts do not add across shards (the same statement
	// is distinct on every shard it hashes near), so per-shard values
	// live under Shards.
	Queries     int                    `json:"queries"`
	Unparseable int                    `json:"unparseable"`
	Shards      map[string]StatsResult `json:"shards"`
	// Health is the gateway prober's view of every configured shard —
	// including ejected ones absent from Shards — so one /stats call
	// shows both the workload statistics and why a shard is missing.
	Health      map[string]ShardHealth `json:"shard_health,omitempty"`
	Unavailable []string               `json:"shards_unavailable,omitempty"`
}

// ClusterSegmentsResult is the gateway's GET /segments response; Shards
// keeps each shard's own list.
type ClusterSegmentsResult struct {
	SegmentsResult
	Shards      map[string]SegmentsResult `json:"shards"`
	Unavailable []string                  `json:"shards_unavailable,omitempty"`
}

// ClusterSealResult is the gateway's POST /seal response.
type ClusterSealResult struct {
	SealResult
	Shards      map[string]SealResult `json:"shards"`
	Unavailable []string              `json:"shards_unavailable,omitempty"`
}

// ClusterCompactResult is the gateway's POST /compact response.
type ClusterCompactResult struct {
	CompactResult
	Shards      map[string]CompactResult `json:"shards"`
	Unavailable []string                 `json:"shards_unavailable,omitempty"`
}

// ClusterDropResult is the gateway's POST /dropBefore response.
type ClusterDropResult struct {
	DropResult
	Shards      map[string]DropResult `json:"shards"`
	Unavailable []string              `json:"shards_unavailable,omitempty"`
}

// ShardHealth is one shard's state in the gateway's GET /healthz view.
type ShardHealth struct {
	Healthy bool `json:"healthy"`
	// Fails is the consecutive-failure streak driving ejection.
	Fails   int `json:"fails,omitempty"`
	Queries int `json:"queries"`
	// LastError is the most recent transport-level failure against this
	// shard (cleared by the next success); empty when healthy.
	LastError string `json:"last_error,omitempty"`
}

// ClusterHealth is the gateway's GET /healthz response. Status is "ok"
// with every shard admitted, "partial" with some ejected, "down" with
// none reachable (also a 503). The totals come from each shard's last
// health probe.
type ClusterHealth struct {
	Health
	Shards map[string]ShardHealth `json:"shards"`
}
