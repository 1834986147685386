package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"logr"
	"logr/client"
	"logr/internal/server"
)

func gwEntries(n, offset int) []logr.Entry {
	tables := []string{"messages", "contacts", "orders", "events"}
	out := make([]logr.Entry, n)
	for i := range out {
		t := tables[(offset+i)%len(tables)]
		out[i] = logr.Entry{
			SQL:   fmt.Sprintf("SELECT c%d FROM %s WHERE k%d = ?", (offset+i)%5, t, (offset+i)%3),
			Count: 1 + (offset+i)%3,
		}
	}
	return out
}

// gwSkewedEntries is a query-log-shaped workload: few hot patterns and a
// tail, with per-pattern multiplicity. Rendezvous placement is by query
// text, so every repetition of a pattern colocates on one shard — each
// shard models a narrower sub-workload at the same K, which is exactly
// why the merged cluster error beats a single node's (the property the
// equivalence test pins).
func gwSkewedEntries(n int) []logr.Entry {
	var pats []string
	for t := 0; t < 4; t++ {
		for c := 0; c < 5; c++ {
			pats = append(pats, fmt.Sprintf("SELECT c%d FROM t%d WHERE k = ?", c, t))
		}
	}
	out := make([]logr.Entry, n)
	for i := range out {
		out[i] = logr.Entry{SQL: pats[(i*i)%len(pats)], Count: 1 + 20/(1+(i%len(pats)))}
	}
	return out
}

// newShard spins up one logrd over a temp dir and returns its base URL
// plus the workload for ground truth.
func newShard(t *testing.T) (string, *logr.Workload) {
	t.Helper()
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	srv := server.New(w, server.Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); w.Close() })
	return ts.URL, w
}

func newGateway(t *testing.T, opts Options) (*Gateway, string) {
	t.Helper()
	if opts.ProbeInterval == 0 {
		opts.ProbeInterval = time.Hour // tests drive probes by hand
	}
	opts.Logf = t.Logf
	g, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })
	return g, ts.URL
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("decoding %s: %v", url, err)
	}
	return resp.StatusCode
}

// TestGatewayEquivalence is the scale-out contract: a 3-shard gateway
// must agree with one logrd holding the identical workload — exact
// /count and /stats totals equal, and the merged summary's reported
// error no worse than the single node's (pinned: the merge is lossless,
// so splitting a workload across shards never costs accuracy).
func TestGatewayEquivalence(t *testing.T) {
	ctx := context.Background()
	refURL, refW := newShard(t)
	var shardURLs []string
	for i := 0; i < 3; i++ {
		u, _ := newShard(t)
		shardURLs = append(shardURLs, u)
	}
	g, gwURL := newGateway(t, Options{Shards: shardURLs})

	entries := gwSkewedEntries(300)
	ref := client.New(refURL)
	if _, err := ref.Ingest(ctx, entries); err != nil {
		t.Fatal(err)
	}
	gwc := client.New(gwURL)
	res, err := gwc.Ingest(ctx, entries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != len(entries) {
		t.Fatalf("gateway accepted %d entries, want %d", res.Entries, len(entries))
	}
	if res.TotalQueries != refW.Queries() {
		t.Fatalf("cluster total %d != single-node total %d", res.TotalQueries, refW.Queries())
	}

	// exact counts must match the single node exactly, pattern by pattern
	for _, pattern := range []string{
		"SELECT c0 FROM t0 WHERE k = ?",
		"SELECT * FROM t1",
		"SELECT c1 FROM t3 WHERE k = ?",
	} {
		truth, err := refW.Count(pattern)
		if err != nil {
			t.Fatal(err)
		}
		var cr client.ClusterCountResult
		if code := getJSON(t, gwURL+"/count?q="+escapeQ(pattern), &cr); code != http.StatusOK {
			t.Fatalf("/count status %d", code)
		}
		if cr.Count != truth {
			t.Fatalf("gateway count %d != single-node %d for %q", cr.Count, truth, pattern)
		}
		if len(cr.Unavailable) != 0 {
			t.Fatalf("healthy cluster reported unavailable shards %v", cr.Unavailable)
		}
	}

	// stats totals sum to the single node's
	var st client.ClusterStatsResult
	if code := getJSON(t, gwURL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("/stats status %d", code)
	}
	refStats, err := ref.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Queries != refStats.Queries || len(st.Shards) != 3 {
		t.Fatalf("cluster stats %d queries over %d shards, want %d over 3", st.Queries, len(st.Shards), refStats.Queries)
	}

	// merged estimate: same epoch, a real frequency, and — pinned — a
	// merged error no worse than the single node's summary error
	pattern := "SELECT c0 FROM t0 WHERE k = ?"
	var er client.ClusterEstimateResult
	if code := getJSON(t, gwURL+"/estimate?q="+escapeQ(pattern), &er); code != http.StatusOK {
		t.Fatalf("/estimate status %d", code)
	}
	if er.Shards != 3 || len(er.Unavailable) != 0 {
		t.Fatalf("estimate fanned to %d shards, unavailable %v", er.Shards, er.Unavailable)
	}
	if er.Epoch.TotalQueries != refW.Queries() {
		t.Fatalf("merged epoch %d queries, want %d", er.Epoch.TotalQueries, refW.Queries())
	}
	if er.Frequency <= 0 {
		t.Fatalf("merged frequency %v, want > 0", er.Frequency)
	}
	if er.Err == nil {
		t.Fatal("merged estimate carries no error bound")
	}
	// the served count comes from the same resolution as the frequency:
	// bit for bit the merged summary's EstimateCount
	msum, _, err := g.MergedSummary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := msum.EstimateCount(pattern); err != nil || math.Float64bits(er.Count) != math.Float64bits(want) {
		t.Fatalf("served count %v, merged summary's EstimateCount %v (%v)", er.Count, want, err)
	}
	var sink discard
	_, meta, err := ref.SummaryRawMeta(ctx, &sink, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if *er.Err > meta.Err+1e-9 {
		t.Fatalf("merged summary error %.6f worse than single-node %.6f", *er.Err, meta.Err)
	}

	// the gateway's binary /summary round-trips into a client-side
	// Summary whose estimate matches the JSON endpoint
	gsum, err := gwc.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	freq, err := gsum.EstimateFrequency(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if diff := freq - er.Frequency; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("binary summary frequency %v != JSON estimate %v", freq, er.Frequency)
	}

	// a K-budgeted gateway coalesces the merged summary under the cap
	_, gw2URL := newGateway(t, Options{Shards: shardURLs, MaxComponents: 2})
	bsum, err := client.New(gw2URL).Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if bsum.Clusters() > 2 {
		t.Fatalf("MaxComponents=2 summary has %d clusters", bsum.Clusters())
	}
	if _, err := bsum.EstimateFrequency(pattern); err != nil {
		t.Fatal(err)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func escapeQ(s string) string { return url.QueryEscape(s) }

// TestGatewayPartialResults: a dead shard degrades answers, not the
// cluster. Ingest spills its entries to live shards with zero loss, reads
// return 200 with a shards_unavailable annotation, and once the failure
// streak crosses EjectAfter the dead shard is skipped outright (and still
// annotated).
func TestGatewayPartialResults(t *testing.T) {
	ctx := context.Background()
	var shardURLs []string
	var workloads []*logr.Workload
	for i := 0; i < 2; i++ {
		u, w := newShard(t)
		shardURLs = append(shardURLs, u)
		workloads = append(workloads, w)
	}
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close() // connection refused from now on
	shardURLs = append(shardURLs, deadURL)
	g, gwURL := newGateway(t, Options{Shards: shardURLs, EjectAfter: 2, HedgeMin: time.Millisecond, HedgeMax: time.Millisecond})

	entries := gwEntries(60, 0)
	owned := 0
	for _, e := range entries {
		if g.addrs[Owner(e.SQL, g.addrs)] == deadURL {
			owned++
		}
	}
	if owned == 0 {
		t.Fatal("test workload gives the dead shard no entries; widen it")
	}
	res, err := g.Ingest(ctx, entries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != len(entries) || res.Rejected != 0 {
		t.Fatalf("ingest with dead shard: %+v, want all %d accepted", res, len(entries))
	}
	if res.Spilled < owned {
		t.Fatalf("spilled %d entries, want >= %d (the dead shard's share)", res.Spilled, owned)
	}
	if len(res.Unavailable) != 1 || res.Unavailable[0] != deadURL {
		t.Fatalf("ingest unavailable %v, want [%s]", res.Unavailable, deadURL)
	}
	// nothing lost: the live shards hold every query
	wantTotal := 0
	for _, e := range entries {
		c := e.Count
		if c <= 0 {
			c = 1
		}
		wantTotal += c
	}
	gotTotal := workloads[0].Queries() + workloads[1].Queries()
	if gotTotal != wantTotal {
		t.Fatalf("live shards hold %d queries, want %d (zero loss)", gotTotal, wantTotal)
	}

	// ingest counted failure 1; this read is failure 2 → ejection, while
	// the response stays 200-with-annotation
	pattern := "SELECT c0 FROM messages WHERE k0 = ?"
	var cr client.ClusterCountResult
	if code := getJSON(t, gwURL+"/count?q="+escapeQ(pattern), &cr); code != http.StatusOK {
		t.Fatalf("/count status %d with a dead shard", code)
	}
	if len(cr.Unavailable) != 1 || cr.Unavailable[0] != deadURL {
		t.Fatalf("count unavailable %v, want [%s]", cr.Unavailable, deadURL)
	}
	var h client.ClusterHealth
	if code := getJSON(t, gwURL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz status %d, want 200 (partial)", code)
	}
	if h.Status != "partial" || h.Shards[deadURL].Healthy {
		t.Fatalf("health %+v, want partial with %s unhealthy", h, deadURL)
	}
	// ejected now: the next read must not even try the dead shard, yet
	// still annotate it
	var cr2 client.ClusterCountResult
	if code := getJSON(t, gwURL+"/count?q="+escapeQ(pattern), &cr2); code != http.StatusOK {
		t.Fatalf("/count status %d after ejection", code)
	}
	if len(cr2.Unavailable) != 1 || cr2.Unavailable[0] != deadURL {
		t.Fatalf("post-ejection unavailable %v, want [%s]", cr2.Unavailable, deadURL)
	}
	if ok, _, _ := g.shards[2].snapshotHealth(); ok {
		t.Fatal("dead shard still admitted after EjectAfter failures")
	}

	// merged estimate survives the outage too
	var er client.ClusterEstimateResult
	if code := getJSON(t, gwURL+"/estimate?q="+escapeQ(pattern), &er); code != http.StatusOK {
		t.Fatalf("/estimate status %d with a dead shard", code)
	}
	if er.Shards != 2 || len(er.Unavailable) != 1 {
		t.Fatalf("estimate %d shards, unavailable %v", er.Shards, er.Unavailable)
	}
}

// TestGatewayIngestRefusalDoesNotSpill: a shard that answers a
// sub-batch with a 400 has refused it, and any other shard would too.
// Those entries count as Rejected and do not spill, the other shard
// receives none of them, and the refusing shard stays admitted.
func TestGatewayIngestRefusalDoesNotSpill(t *testing.T) {
	liveURL, live := newShard(t)
	var refusals atomic.Int64
	refusing := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			refusals.Add(1)
		}
		rw.Header().Set("Content-Type", "application/json")
		rw.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(rw).Encode(client.ErrorResponse{Error: "refused"})
	}))
	t.Cleanup(refusing.Close)
	g, gwURL := newGateway(t, Options{Shards: []string{liveURL, refusing.URL}, EjectAfter: 1})

	entries := gwEntries(60, 0)
	refused, liveQueries := 0, 0
	for _, e := range entries {
		if g.addrs[Owner(e.SQL, g.addrs)] == refusing.URL {
			refused++
		} else {
			liveQueries += max(e.Count, 1)
		}
	}
	if refused == 0 || refused == len(entries) {
		t.Fatalf("the refusing shard owns %d of %d entries; the test needs a split", refused, len(entries))
	}
	res, err := g.Ingest(context.Background(), entries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != refused || res.Spilled != 0 || res.Entries != len(entries)-refused {
		t.Fatalf("ingest = %+v; want %d rejected, none spilled, %d accepted", res, refused, len(entries)-refused)
	}
	if len(res.Unavailable) != 0 {
		t.Fatalf("a refusal marked shards unavailable: %v", res.Unavailable)
	}
	if got := live.Queries(); got != liveQueries {
		t.Fatalf("the live shard holds %d queries, want only its own %d", got, liveQueries)
	}
	if n := refusals.Load(); n != 1 {
		t.Fatalf("the refusing shard saw %d ingest requests, want 1", n)
	}
	for i := range g.shards {
		if ok, _, _ := g.shards[i].snapshotHealth(); !ok {
			t.Fatalf("shard %s ejected after answering", g.addrs[i])
		}
	}
	// over HTTP the refusal is a 502 carrying the count
	body, _ := json.Marshal(client.IngestRequest{Entries: entries})
	resp, err := http.Post(gwURL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cr client.ClusterIngestResult
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadGateway || cr.Rejected != refused {
		t.Fatalf("POST /ingest = %d %+v; want 502 with %d rejected", resp.StatusCode, cr, refused)
	}
}

// TestGatewayEjectionAndReadmission: a flaky shard is ejected after its
// failure streak and re-admitted by the next successful health probe.
func TestGatewayEjectionAndReadmission(t *testing.T) {
	stableURL, stableW := newShard(t)
	if err := stableW.Append(gwEntries(10, 0)); err != nil {
		t.Fatal(err)
	}
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(gwEntries(10, 5)); err != nil {
		t.Fatal(err)
	}
	inner := server.New(w, server.Options{}).Handler()
	var failing atomic.Bool
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if failing.Load() {
			hj, ok := rw.(http.Hijacker)
			if !ok {
				t.Error("response writer is not a hijacker")
				return
			}
			conn, _, err := hj.Hijack()
			if err == nil {
				conn.Close() // transport-level failure, not an HTTP error
			}
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer flaky.Close()

	g, gwURL := newGateway(t, Options{Shards: []string{stableURL, flaky.URL}, EjectAfter: 1, HedgeMin: time.Millisecond, HedgeMax: time.Millisecond})
	failing.Store(true)
	var cr client.ClusterCountResult
	if code := getJSON(t, gwURL+"/count?q="+escapeQ("SELECT c0 FROM messages WHERE k0 = ?"), &cr); code != http.StatusOK {
		t.Fatalf("/count status %d", code)
	}
	if len(cr.Unavailable) != 1 || cr.Unavailable[0] != flaky.URL {
		t.Fatalf("unavailable %v, want the flaky shard", cr.Unavailable)
	}
	if ok, _, _ := g.shards[1].snapshotHealth(); ok {
		t.Fatal("flaky shard not ejected after EjectAfter=1 failure")
	}
	failing.Store(false)
	g.probeOnce()
	if ok, _, _ := g.shards[1].snapshotHealth(); !ok {
		t.Fatal("recovered shard not re-admitted by the probe")
	}
	var cr2 client.ClusterCountResult
	if code := getJSON(t, gwURL+"/count?q="+escapeQ("SELECT c0 FROM messages WHERE k0 = ?"), &cr2); code != http.StatusOK {
		t.Fatalf("/count status %d after re-admission", code)
	}
	if len(cr2.Unavailable) != 0 {
		t.Fatalf("re-admitted cluster still reports unavailable %v", cr2.Unavailable)
	}
}

// TestGatewayHedging: a read stuck behind one slow response gets a backup
// request after the hedging delay, the backup's answer wins, and the slow
// loser's context is canceled rather than abandoned.
func TestGatewayHedging(t *testing.T) {
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(gwEntries(10, 0)); err != nil {
		t.Fatal(err)
	}
	inner := server.New(w, server.Options{}).Handler()
	var hits atomic.Int32
	canceled := make(chan struct{}, 1)
	shard := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/count" && hits.Add(1) == 1 {
			select {
			case <-r.Context().Done():
				canceled <- struct{}{}
			case <-time.After(5 * time.Second):
			}
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	defer shard.Close()

	_, gwURL := newGateway(t, Options{Shards: []string{shard.URL}, HedgeMin: 10 * time.Millisecond, HedgeMax: 10 * time.Millisecond})
	start := time.Now()
	var cr client.ClusterCountResult
	if code := getJSON(t, gwURL+"/count?q="+escapeQ("SELECT c0 FROM messages WHERE k0 = ?"), &cr); code != http.StatusOK {
		t.Fatalf("/count status %d", code)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("hedged read took %v; the backup should have answered fast", elapsed)
	}
	if n := hits.Load(); n < 2 {
		t.Fatalf("shard saw %d /count requests, want >= 2 (primary + hedge)", n)
	}
	select {
	case <-canceled:
	case <-time.After(2 * time.Second):
		t.Fatal("slow primary's context was never canceled")
	}
}

// TestGatewayPlainClient is the superset contract: every client.Client
// method pointed at a gateway decodes and returns the single-node answer
// for the whole cluster, and a seal-id range, which only means something
// on one shard, is refused.
func TestGatewayPlainClient(t *testing.T) {
	ctx := context.Background()
	var shardURLs []string
	var workloads []*logr.Workload
	for i := 0; i < 2; i++ {
		u, w := newShard(t)
		shardURLs = append(shardURLs, u)
		workloads = append(workloads, w)
	}
	// data and one seal on shard 0 before the gateway exists: its first
	// probe must see the totals, and shard 0's next seal id is 1
	if err := workloads[0].Append(gwEntries(20, 0)); err != nil {
		t.Fatal(err)
	}
	if _, ok := workloads[0].Seal(); !ok {
		t.Fatal("shard 0 did not seal")
	}
	if err := workloads[1].Append(gwEntries(20, 20)); err != nil {
		t.Fatal(err)
	}
	total := func() int { return workloads[0].Queries() + workloads[1].Queries() }
	_, gwURL := newGateway(t, Options{Shards: shardURLs})
	c := client.New(gwURL)

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Queries != total() {
		t.Fatalf("Health = %+v, %v; want ok with %d queries", h, err, total())
	}
	entries := gwEntries(60, 7)
	ir, err := c.Ingest(ctx, entries)
	if err != nil || ir.Entries != len(entries) || ir.TotalQueries != total() {
		t.Fatalf("Ingest = %+v, %v; want %d entries, %d queries", ir, err, len(entries), total())
	}
	sr, err := c.Seal(ctx)
	if err != nil || !sr.Sealed || sr.ID != 1 {
		t.Fatalf("Seal = %+v, %v; want sealed with the largest id 1", sr, err)
	}
	if sr, err := c.Seal(ctx); err != nil || sr.Sealed {
		t.Fatalf("second Seal = %+v, %v; want nothing to seal", sr, err)
	}
	segs, err := c.Segments(ctx)
	if err != nil || len(segs.Segments) != 3 || segs.ActiveQueries != 0 {
		t.Fatalf("Segments = %+v, %v; want 3 segments, 0 active", segs, err)
	}

	pattern := "SELECT c0 FROM messages WHERE k0 = ?"
	est, err := c.Estimate(ctx, pattern)
	if err != nil || est.Epoch.TotalQueries != total() || est.Frequency <= 0 {
		t.Fatalf("Estimate = %+v, %v; want a frequency over %d queries", est, err, total())
	}
	truth := 0
	for _, w := range workloads {
		if n, err := w.Count(pattern); err == nil {
			truth += n
		}
	}
	if n, err := c.Count(ctx, pattern); err != nil || n != truth {
		t.Fatalf("Count = %d, %v; want %d", n, err, truth)
	}
	var sink discard
	if _, meta, err := c.SummaryRawMeta(ctx, &sink, -1, -1); err != nil || meta.Epoch.TotalQueries != total() {
		t.Fatalf("SummaryRawMeta = %+v, %v; want %d queries", meta, err, total())
	}
	_, _, err = c.SummaryRawMeta(ctx, &sink, 0, 1)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.StatusCode != http.StatusBadRequest {
		t.Fatalf("range SummaryRawMeta error %v, want HTTP 400", err)
	}

	// shard 0's two segments merge; then every segment lies before id 2
	if cr, err := c.Compact(ctx, 1<<30); err != nil || cr.Eliminated != 1 {
		t.Fatalf("Compact = %+v, %v; want 1 eliminated", cr, err)
	}
	if dr, err := c.DropBefore(ctx, 2); err != nil || dr.Dropped != 2 {
		t.Fatalf("DropBefore = %+v, %v; want 2 dropped", dr, err)
	}
	for i, w := range workloads {
		if n := len(w.Segments()); n != 0 {
			t.Fatalf("shard %d keeps %d segments after DropBefore", i, n)
		}
	}
}

// TestGatewayDriftBounds: the aggregate /drift reports the range bounds
// every shard resolved, and -1 for a bound on which the shards disagree.
func TestGatewayDriftBounds(t *testing.T) {
	ctx := context.Background()
	var shardURLs []string
	var workloads []*logr.Workload
	for i := 0; i < 2; i++ {
		u, w := newShard(t)
		shardURLs = append(shardURLs, u)
		workloads = append(workloads, w)
	}
	_, gwURL := newGateway(t, Options{Shards: shardURLs})
	c := client.New(gwURL)
	for round := 0; round < 2; round++ {
		if _, err := c.Ingest(ctx, gwEntries(40, 40*round)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Seal(ctx); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range workloads {
		if n := len(w.Segments()); n != 2 {
			t.Fatalf("shard %d holds %d segments, want 2", i, n)
		}
	}
	bounds := func(r client.DriftResult) [4]int { return [4]int{r.BaseFrom, r.BaseTo, r.WinFrom, r.WinTo} }
	var dr client.ClusterDriftResult
	if code := getJSON(t, gwURL+"/drift", &dr); code != http.StatusOK {
		t.Fatalf("/drift status %d", code)
	}
	if got := bounds(dr.DriftResult); got != [4]int{0, 1, 1, 2} {
		t.Fatalf("aggregate bounds %v, want [0 1 1 2] (both shards' defaults)", got)
	}
	if r, err := c.Drift(ctx, 0, 1, 1, 2); err != nil || bounds(r) != [4]int{0, 1, 1, 2} {
		t.Fatalf("pinned Drift = %+v, %v; want bounds [0 1 1 2]", r, err)
	}

	// a third segment on shard 0 alone moves its default baseline end and
	// window; the shards still agree on where the baseline starts
	if err := workloads[0].Append(gwEntries(20, 80)); err != nil {
		t.Fatal(err)
	}
	if _, ok := workloads[0].Seal(); !ok {
		t.Fatal("shard 0 did not seal")
	}
	dr = client.ClusterDriftResult{}
	if code := getJSON(t, gwURL+"/drift", &dr); code != http.StatusOK {
		t.Fatalf("/drift status %d", code)
	}
	if got := bounds(dr.DriftResult); got != [4]int{0, -1, -1, -1} {
		t.Fatalf("aggregate bounds %v, want [0 -1 -1 -1] (shards resolved [0 2 2 3] and [0 1 1 2])", got)
	}
	if got := bounds(dr.Shards[shardURLs[0]]); got != [4]int{0, 2, 2, 3} {
		t.Fatalf("shard 0 bounds %v, want [0 2 2 3]", got)
	}
}

// TestGatewayHealthTotals: /healthz sums the shards' active queries and
// segments from their last probes, over the admitted shards only, while
// Queries keeps every shard's last-known total.
func TestGatewayHealthTotals(t *testing.T) {
	ctx := context.Background()
	var shardURLs []string
	var workloads []*logr.Workload
	for i := 0; i < 2; i++ {
		u, w := newShard(t)
		shardURLs = append(shardURLs, u)
		workloads = append(workloads, w)
	}
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	flaky := httptest.NewServer(server.New(w, server.Options{}).Handler())
	defer flaky.Close()
	shardURLs = append(shardURLs, flaky.URL)
	workloads = append(workloads, w)
	g, gwURL := newGateway(t, Options{Shards: shardURLs, EjectAfter: 1})
	c := client.New(gwURL)

	if _, err := c.Ingest(ctx, gwEntries(60, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ingest(ctx, gwEntries(30, 60)); err != nil {
		t.Fatal(err)
	}
	g.probeOnce()
	var queries, active, segments [3]int
	for i, w := range workloads {
		queries[i], active[i], segments[i] = w.Queries(), w.ActiveQueries(), len(w.Segments())
	}
	if active[2] == 0 || segments[2] == 0 {
		t.Fatalf("the flaky shard holds %d active queries in %d segments; widen the workload", active[2], segments[2])
	}
	var h client.ClusterHealth
	if code := getJSON(t, gwURL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	want := client.Health{Status: "ok",
		Queries:  queries[0] + queries[1] + queries[2],
		Active:   active[0] + active[1] + active[2],
		Segments: segments[0] + segments[1] + segments[2]}
	if h.Health != want {
		t.Fatalf("/healthz totals %+v, want %+v", h.Health, want)
	}

	// once the flaky shard is ejected its last-known queries still count,
	// but its active queries and segments leave the admitted totals
	flaky.Close()
	g.probeOnce()
	h = client.ClusterHealth{}
	if code := getJSON(t, gwURL+"/healthz", &h); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	want = client.Health{Status: "partial",
		Queries:  queries[0] + queries[1] + queries[2],
		Active:   active[0] + active[1],
		Segments: segments[0] + segments[1]}
	if h.Health != want {
		t.Fatalf("/healthz totals after ejection %+v, want %+v", h.Health, want)
	}
}

// TestGatewayIngestKeepsHedgeDelay: ingest round trips are mutations and
// stay out of the read-hedging histogram, so a burst of slow ingests
// leaves the adaptive hedge delay at its floor.
func TestGatewayIngestKeepsHedgeDelay(t *testing.T) {
	_, w := newShard(t)
	inner := server.New(w, server.Options{}).Handler()
	slow := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ingest" {
			time.Sleep(50 * time.Millisecond)
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(slow.Close)
	g, _ := newGateway(t, Options{Shards: []string{slow.URL}})
	for i := 0; i < 20; i++ {
		if _, err := g.Ingest(context.Background(), gwEntries(3, 3*i)); err != nil {
			t.Fatal(err)
		}
	}
	if d := g.shards[0].hedgeDelay(g.opts.HedgeMin, g.opts.HedgeMax); d != g.opts.HedgeMin {
		t.Fatalf("hedge delay %v after 20 slow ingests, want the floor %v", d, g.opts.HedgeMin)
	}
}

// TestGatewayRun drives the gateway runner end to end: serve on an
// ephemeral port, ingest through it, cancel the context (the signal path),
// and check Run returns nil and releases the port.
func TestGatewayRun(t *testing.T) {
	shardURL, w := newShard(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	cfg := RunConfig{
		Shell:   server.Shell{Addr: "127.0.0.1:0", OnListen: func(a net.Addr) { addrCh <- a }, Logf: t.Logf},
		Gateway: Options{Shards: []string{shardURL}},
	}
	go func() { done <- Run(ctx, cfg) }()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("Run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("gateway never started listening")
	}
	entries := gwEntries(30, 0)
	res, err := client.New(base).Ingest(ctx, entries)
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != len(entries) || w.Queries() != res.TotalQueries {
		t.Fatalf("ingest through Run = %+v; the shard holds %d queries", res, w.Queries())
	}
	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("shutdown never completed")
	}
	if _, err := (&http.Client{Timeout: time.Second}).Get(base + "/healthz"); err == nil {
		t.Fatal("gateway still serving after shutdown")
	}
}

// TestParseFlagsDefaults pins what a logrd-gateway command line naming only
// its shards parses to, the shared shell flags included.
func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := ParseFlags(flag.NewFlagSet("logrd-gateway", flag.ContinueOnError), []string{"-shards", "http://a, http://b"})
	if err != nil {
		t.Fatal(err)
	}
	want := RunConfig{
		Shell: server.Shell{Addr: ":8081"},
		Gateway: Options{
			Shards:        []string{"http://a", "http://b"},
			MaxBodyBytes:  32 << 20,
			HedgeMin:      2 * time.Millisecond,
			HedgeMax:      time.Second,
			ProbeInterval: 2 * time.Second,
			EjectAfter:    3,
			Timeout:       15 * time.Second,
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("defaults %+v, want %+v", cfg, want)
	}
}
