package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"logr"
	"logr/client"
	"logr/internal/obs"
	"logr/internal/vfs/faultfs"
)

func testEntries(n, offset int) []logr.Entry {
	tables := []string{"messages", "contacts", "orders"}
	out := make([]logr.Entry, n)
	for i := range out {
		t := tables[(offset+i)%len(tables)]
		out[i] = logr.Entry{
			SQL:   fmt.Sprintf("SELECT c%d FROM %s WHERE k%d = ?", (offset+i)%5, t, (offset+i)%4),
			Count: 1 + (offset+i)%3,
		}
	}
	return out
}

// TestEstimateCountIsSummaryCount: /estimate resolves its probe once and
// derives the count from that frequency, so the served count must be the
// summary's EstimateCount bit for bit, for patterns of every kind.
func TestEstimateCountIsSummaryCount(t *testing.T) {
	w := logr.FromEntries(testEntries(60, 0))
	opts := logr.CompressOptions{Clusters: 2, Seed: 1}
	ts := httptest.NewServer(New(w, Options{Compress: opts}).Handler())
	defer ts.Close()
	sum, err := w.Compress(opts)
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(ts.URL)
	for _, pattern := range []string{
		"SELECT c0 FROM messages WHERE k0 = ?",
		"SELECT c1 FROM contacts",
		"SELECT c2 FROM orders WHERE k3 = ?",
		"SELECT nope FROM nowhere",
	} {
		est, err := c.Estimate(context.Background(), pattern)
		if err != nil {
			t.Fatal(err)
		}
		freq, _ := sum.EstimateFrequency(pattern)
		count, _ := sum.EstimateCount(pattern)
		if math.Float64bits(est.Frequency) != math.Float64bits(freq) || math.Float64bits(est.Count) != math.Float64bits(count) {
			t.Fatalf("%q: served frequency %v count %v, summary %v and %v", pattern, est.Frequency, est.Count, freq, count)
		}
	}
}

// TestReadPathStages: a ring that captures every request shows what a read
// paid for — /estimate the summary refresh and the answer, /count the count
// — read back through GET /debug/requests.
func TestReadPathStages(t *testing.T) {
	w := logr.FromEntries(testEntries(60, 0))
	ts := httptest.NewServer(New(w, Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}, SlowRequest: -1}).Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	probe := "SELECT c0 FROM messages WHERE k0 = ?"
	if _, err := c.Estimate(context.Background(), probe); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Count(context.Background(), probe); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ring struct {
		Requests []obs.RequestEntry `json:"requests"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ring); err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{"/estimate": {"summary", "estimate"}, "/count": {"count"}}
	for _, e := range ring.Requests {
		stages, ok := want[e.Route]
		if !ok {
			continue
		}
		var got []string
		for _, st := range e.Stages {
			got = append(got, st.Name)
		}
		if !reflect.DeepEqual(got, stages) {
			t.Errorf("%s stages = %v, want %v", e.Route, got, stages)
		}
		delete(want, e.Route)
	}
	if len(want) > 0 {
		t.Errorf("no ring entry for %v in %+v", want, ring.Requests)
	}
}

// TestEndToEndHTTP is the serving-layer smoke the CI step mirrors: ingest
// over HTTP (JSON and text bodies), seal, estimate vs exact count, drift,
// segment control, binary summary export — then a clean shutdown and a
// reopen of the same directory with no data loss.
func TestEndToEndHTTP(t *testing.T) {
	dir := t.TempDir()
	wopts := logr.Options{Sync: logr.SyncAlways, SegmentThreshold: 0}
	w, err := logr.OpenDir(dir, wopts)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(w, Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	// JSON ingest
	res, err := c.Ingest(ctx, testEntries(30, 0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Entries != 30 || res.TotalQueries == 0 {
		t.Fatalf("ingest result %+v", res)
	}
	// text ingest: compact body through the MaxLineBytes machinery
	text := "7\tSELECT c0 FROM messages WHERE k0 = ?\nSELECT name FROM contacts WHERE chat_id = ?\n"
	tres, err := c.IngestReader(ctx, strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if tres.Entries != 2 {
		t.Fatalf("text ingest accepted %d entries, want 2", tres.Entries)
	}

	// seal → segments
	seal, err := c.Seal(ctx)
	if err != nil || !seal.Sealed {
		t.Fatalf("seal: %+v, %v", seal, err)
	}
	if _, err := c.Ingest(ctx, testEntries(25, 7)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	segs, err := c.Segments(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs.Segments) != 2 {
		t.Fatalf("daemon reports %d segments, want 2", len(segs.Segments))
	}

	// estimate + exact count agree with the served workload
	pattern := "SELECT c0 FROM messages WHERE k0 = ?"
	est, err := c.Estimate(ctx, pattern)
	if err != nil {
		t.Fatal(err)
	}
	if est.Frequency <= 0 || est.Epoch.TotalQueries != w.Queries() {
		t.Fatalf("estimate %+v vs %d queries", est, w.Queries())
	}
	n, err := c.Count(ctx, pattern)
	if err != nil {
		t.Fatal(err)
	}
	truth, err := w.Count(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if n != truth {
		t.Fatalf("remote count %d != local %d", n, truth)
	}

	// drift with defaulted ranges
	drift, err := c.Drift(ctx, -1, -1, -1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if drift.WinFrom != segs.Segments[1].ID || drift.WinTo != segs.Segments[1].EndID {
		t.Fatalf("drift defaulted to window [%d,%d)", drift.WinFrom, drift.WinTo)
	}

	// binary summary export round-trips into a usable client-side Summary
	sum, err := c.Summary(ctx)
	if err != nil {
		t.Fatal(err)
	}
	f, err := sum.EstimateFrequency(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if f != est.Frequency {
		t.Fatalf("client-side summary frequency %v != daemon's %v", f, est.Frequency)
	}
	if _, err := c.SummaryRange(ctx, segs.Segments[0].ID, segs.Segments[1].EndID); err != nil {
		t.Fatal(err)
	}

	// stats + health
	st, err := c.Stats(ctx)
	if err != nil || st.Queries != w.Queries() {
		t.Fatalf("stats %+v, err %v", st, err)
	}
	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Segments != 2 {
		t.Fatalf("health %+v, err %v", h, err)
	}

	// errors surface as typed API errors
	if _, err := c.Estimate(ctx, "NOT SQL AT ALL ((("); err == nil {
		t.Fatal("bad pattern must error")
	} else if ae, ok := err.(*client.APIError); !ok || ae.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern error: %v", err)
	}

	// graceful shutdown: close the HTTP side, seal + close the workload,
	// reopen the directory — nothing acknowledged may be lost
	queries := w.Queries()
	ts.Close()
	w.Seal()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := logr.OpenDir(dir, wopts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Queries() != queries {
		t.Fatalf("reopened with %d queries, want %d", re.Queries(), queries)
	}
	truth2, err := re.Count(pattern)
	if err != nil {
		t.Fatal(err)
	}
	if truth2 != truth {
		t.Fatalf("reopened count %d, want %d", truth2, truth)
	}
}

// TestIngestBackpressure: with a zero-width ingest gate every request is
// refused with 429 + Retry-After rather than queueing without bound.
func TestIngestBackpressure(t *testing.T) {
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	srv := New(w, Options{MaxConcurrentIngest: 1})
	// fill the gate so the next request sees a full backlog
	srv.ingestSem <- struct{}{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(`{"entries":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("backpressure: HTTP %d, want 429", resp.StatusCode)
	}
	if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q must be a positive integer of seconds", resp.Header.Get("Retry-After"))
	}
	<-srv.ingestSem
	if _, err := client.New(ts.URL).WithRetryOn429(5).Ingest(context.Background(), testEntries(3, 0)); err != nil {
		t.Fatalf("ingest after releasing the gate: %v", err)
	}

	// /stats surfaces the pipeline backlog gauges alongside the Table-1 row
	var st client.StatsResult
	st, err = client.New(ts.URL).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Ingest.QueueCap <= 0 {
		t.Fatalf("stats ingest lag %+v: durable workload must report a bounded apply queue", st.Ingest)
	}
	if st.Ingest.QueuedBatches < 0 || st.Ingest.AppliedOffset > st.Ingest.AckedOffset {
		t.Fatalf("stats ingest lag %+v: applied offset ran ahead of acked", st.Ingest)
	}
	if st.Ingest.LagBytes != st.Ingest.AckedOffset-st.Ingest.AppliedOffset {
		t.Fatalf("stats ingest lag %+v: lag_bytes inconsistent", st.Ingest)
	}
}

// TestRunGracefulShutdown drives the daemon runner end to end: serve on an
// ephemeral port, ingest, cancel the context (the signal path), and verify
// the drain-seal-sync shutdown left a reopenable directory holding
// everything acknowledged — including the unsealed ingest tail.
func TestRunGracefulShutdown(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	cfg := RunConfig{
		Shell:    Shell{Addr: "127.0.0.1:0", OnListen: func(a net.Addr) { addrCh <- a }, Logf: t.Logf},
		Dir:      dir,
		Workload: logr.Options{Sync: logr.SyncInterval},
		Server:   Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}},
	}
	go func() { done <- Run(ctx, cfg) }()
	var base string
	select {
	case a := <-addrCh:
		base = "http://" + a.String()
	case err := <-done:
		t.Fatalf("Run exited early: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never started listening")
	}
	c := client.New(base)
	if _, err := c.Ingest(ctx, testEntries(40, 0)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Seal(ctx); err != nil {
		t.Fatal(err)
	}
	// an unsealed tail must survive shutdown via the drain-time seal
	if _, err := c.Ingest(ctx, testEntries(10, 50)); err != nil {
		t.Fatal(err)
	}
	h, err := c.Health(ctx)
	if err != nil {
		t.Fatal(err)
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
	// the port must actually be released
	if _, err := (&http.Client{Timeout: time.Second}).Get(base + "/healthz"); err == nil {
		t.Fatal("daemon still serving after shutdown")
	}

	re, err := logr.OpenDir(dir, logr.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Queries() != h.Queries {
		t.Fatalf("reopened with %d queries, daemon acknowledged %d", re.Queries(), h.Queries)
	}
	if re.ActiveQueries() != 0 {
		t.Fatalf("shutdown left %d queries unsealed", re.ActiveQueries())
	}
}

// TestDriftPinnedRanges exercises /drift with explicit ranges through the
// raw query API (the client sends them the same way).
func TestDriftPinnedRanges(t *testing.T) {
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 3; i++ {
		if err := w.Append(testEntries(20, i*9)); err != nil {
			t.Fatal(err)
		}
		w.Seal()
	}
	srv := New(w, Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/drift?" + url.Values{
		"baseFrom": {"0"}, "baseTo": {"2"}, "winFrom": {"2"}, "winTo": {"3"},
	}.Encode())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pinned drift: HTTP %d: %s", resp.StatusCode, buf.String())
	}
}

// TestDegradedModeHTTP pins the serving-layer degraded protocol end to end:
// a fatal disk fault flips the durable workload read-only; from then on
// ingest answers 503 with a structured {"degraded":true} body and a
// Retry-After hint, /healthz reports 503 degraded, /readyz keeps answering
// 200 (the process is alive and serving reads), and /stats keeps working
// and reports durability.degraded.
func TestDegradedModeHTTP(t *testing.T) {
	ffs := faultfs.New()
	w, err := logr.OpenDir("data", logr.Options{Sync: logr.SyncAlways, FS: ffs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close() // the filesystem ends the test frozen; close errors are expected
	srv := New(w, Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()

	if _, err := c.Ingest(ctx, testEntries(20, 0)); err != nil {
		t.Fatal(err)
	}

	// a fatal fault on the next WAL write that also freezes the disk, so the
	// background probe cannot re-arm writes for the rest of the test
	ffs.AddRule(faultfs.Rule{Kind: "write", Path: "wal.log", Err: faultfs.ENOSPC, Crash: true})

	// the faulted request surfaces the fault itself (a plain 5xx); the
	// degraded protocol owns every mutation after it
	if _, err := c.Ingest(ctx, testEntries(5, 30)); err == nil {
		t.Fatal("ingest through a full disk reported success")
	}
	var apiErr *client.APIError
	_, err = c.Ingest(ctx, testEntries(5, 30))
	if !errors.As(err, &apiErr) {
		t.Fatalf("degraded ingest error = %v, want *client.APIError", err)
	}
	if apiErr.StatusCode != http.StatusServiceUnavailable || !apiErr.Degraded {
		t.Fatalf("degraded ingest: status=%d degraded=%v, want 503 degraded", apiErr.StatusCode, apiErr.Degraded)
	}

	// raw wire shape: 503, Retry-After, {"error":..., "degraded":true}
	body, _ := json.Marshal(client.IngestRequest{Entries: testEntries(3, 60)})
	resp, err := http.Post(ts.URL+"/ingest", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var er client.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("raw degraded ingest: status=%d retry-after=%q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}
	if !er.Degraded || er.Error == "" {
		t.Fatalf("degraded error body %+v", er)
	}

	// /healthz flips to 503 degraded; /readyz stays 200 — the process is
	// alive, a load balancer should keep routing reads to it
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h client.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "degraded" || !h.Degraded {
		t.Fatalf("/healthz while degraded: status=%d body=%+v", resp.StatusCode, h)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz while degraded: status=%d, want 200", resp.StatusCode)
	}

	// reads keep serving, and /stats reports the durability state
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatalf("stats while degraded: %v", err)
	}
	if !st.Durability.Degraded {
		t.Fatalf("stats durability %+v, want degraded", st.Durability)
	}
	if st.Durability.WalBytes <= 0 {
		t.Fatalf("stats wal_bytes = %d, want > 0", st.Durability.WalBytes)
	}
	if _, err := c.Segments(ctx); err != nil {
		t.Fatalf("segment listing while degraded: %v", err)
	}
}

// TestIngestQueryCap: both body codecs answer 400, naming the cap, for a
// batch that would take the workload past 2^50 queries, and the workload
// keeps serving afterwards.
func TestIngestQueryCap(t *testing.T) {
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(New(w, Options{}).Handler())
	defer ts.Close()
	post := func(ct, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", ct, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	over := fmt.Sprint(1<<50 + 1)
	for _, c := range []struct{ ct, body string }{
		{"application/json", `{"entries":[{"sql":"SELECT a FROM t","count":` + over + `}]}`},
		{"text/plain", over + "\tSELECT a FROM t\n"},
	} {
		if code, msg := post(c.ct, c.body); code != http.StatusBadRequest || !strings.Contains(msg, "2^50") {
			t.Fatalf("%s body past the cap: HTTP %d %s, want 400 naming 2^50", c.ct, code, msg)
		}
	}
	if code, msg := post("text/plain", fmt.Sprint(1<<50)+"\tSELECT a FROM t\n"); code != http.StatusOK {
		t.Fatalf("a body reaching the cap: HTTP %d %s", code, msg)
	}
	if code, _ := post("application/json", `{"entries":[{"sql":"SELECT a FROM t"}]}`); code != http.StatusBadRequest {
		t.Fatalf("one query past a full workload: HTTP %d, want 400", code)
	}
	if got := w.Queries(); got != 1<<50 {
		t.Fatalf("workload holds %d queries, want 2^50", got)
	}
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stats after a refused ingest: HTTP %d", resp.StatusCode)
	}
}

// TestServedCompressOptionsAsGiven: a non-zero Options.Compress is served
// as given, even with Clusters and TargetError both 0 — here an auto sweep
// capped at 3 clusters, not the zero value's default K = 8.
func TestServedCompressOptionsAsGiven(t *testing.T) {
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(testEntries(60, 0)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(w, Options{Compress: logr.CompressOptions{MaxClusters: 3, Seed: 1}}).Handler())
	defer ts.Close()
	sum, err := client.New(ts.URL).Summary(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Clusters(); got != 3 {
		t.Fatalf("/summary has %d components, want the 3 of MaxClusters", got)
	}
}

// TestLagGaugesMatchStats: after ingest and the barrier a /stats read
// takes, the apply-queue and lag gauges on /metrics equal /stats' ingest
// object, and the WAL, checkpoint and degraded gauges its durability
// object.
func TestLagGaugesMatchStats(t *testing.T) {
	reg := obs.NewRegistry()
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ts := httptest.NewServer(New(w, Options{Obs: reg}).Handler())
	defer ts.Close()
	c := client.New(ts.URL)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := c.Ingest(ctx, testEntries(20, 20*i)); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	gauges := map[string]float64{}
	for _, line := range strings.Split(string(text), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(name, "#") {
			if f, err := strconv.ParseFloat(v, 64); err == nil {
				gauges[name] = f
			}
		}
	}
	for name, want := range map[string]int64{
		"logr_apply_queue_depth":       int64(st.Ingest.QueuedBatches),
		"logr_apply_queue_cap":         int64(st.Ingest.QueueCap),
		"logr_apply_queued_entries":    st.Ingest.QueuedEntries,
		"logr_ingest_lag_bytes":        st.Ingest.LagBytes,
		"logr_wal_size_bytes":          st.Durability.WalBytes,
		"logr_checkpoint_offset_bytes": st.Durability.CheckpointOffset,
		"logr_store_degraded":          boolInt(st.Durability.Degraded),
	} {
		got, ok := gauges[name]
		if !ok || got != float64(want) {
			t.Errorf("%s = %v (exported %v), /stats says %d", name, got, ok, want)
		}
	}
	if st.Ingest.QueueCap == 0 {
		t.Fatal("/stats reports no apply queue; the durable pipeline is not under test")
	}
	if st.Durability.WalBytes == 0 {
		t.Fatal("/stats reports an empty WAL; the durability gauges are not under test")
	}
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// TestParseFlagsDefaults pins what an empty logrd command line parses to,
// the shared shell flags included.
func TestParseFlagsDefaults(t *testing.T) {
	cfg, err := ParseFlags(flag.NewFlagSet("logrd", flag.ContinueOnError), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := RunConfig{
		Shell: Shell{Addr: ":8080"},
		Dir:   "logrd-data",
		Workload: logr.Options{
			SegmentThreshold: 50000,
			Sync:             logr.SyncInterval,
			SyncEvery:        100 * time.Millisecond,
		},
		Server: Options{
			Compress:     logr.CompressOptions{Clusters: 8, Seed: 1},
			MaxBodyBytes: 32 << 20,
		},
	}
	if !reflect.DeepEqual(cfg, want) {
		t.Fatalf("defaults %+v, want %+v", cfg, want)
	}
}
