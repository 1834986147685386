package main

import (
	"bytes"
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestParsePromLine(t *testing.T) {
	s, err := parsePromLine(`logr_http_requests_total{route="/ingest",code="200",note="a \"q\" \\ b"} 12 1700000000`)
	if err != nil {
		t.Fatal(err)
	}
	if s.name != "logr_http_requests_total" || s.value != 12 || s.labels["route"] != "/ingest" || s.labels["code"] != "200" || s.labels["note"] != `a "q" \ b` {
		t.Errorf("parsed %+v", s)
	}
	if s, err = parsePromLine("logr_apply_queue_depth 3.5e+00"); err != nil || s.name != "logr_apply_queue_depth" || s.value != 3.5 || s.labels != nil {
		t.Errorf("parsed %+v, %v", s, err)
	}
	for _, bad := range []string{"novalue", `x{a="1} 2`, `x{a=1} 2`, "x notanumber"} {
		if _, err := parsePromLine(bad); err == nil {
			t.Errorf("parsePromLine(%q) accepted a malformed line", bad)
		}
	}
}

func TestWindowQuantile(t *testing.T) {
	text := func(a, b, c, inf int) string {
		var sb strings.Builder
		for _, l := range []struct {
			le string
			n  int
		}{{"0.001", a}, {"0.01", b}, {"0.1", c}, {"+Inf", inf}} {
			sb.WriteString(`lat_bucket{le="` + l.le + `"} `)
			sb.WriteString(strconv.Itoa(l.n) + "\n")
		}
		return sb.String()
	}
	before, err := parseProm(strings.NewReader(text(10, 10, 10, 10)))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader("# HELP lat latency\n# TYPE lat histogram\n" + text(10, 60, 110, 110)))
	if err != nil {
		t.Fatal(err)
	}
	w := window{before, after}
	// inside the window: 0 up to 1 ms, 50 up to 10 ms, 50 up to 100 ms
	if got := w.quantile("lat", 0.5); math.Abs(got-0.01) > 1e-12 {
		t.Errorf("median = %v, want the 0.01 edge", got)
	}
	if got := w.quantile("lat", 0.75); math.Abs(got-0.055) > 1e-12 {
		t.Errorf("p75 = %v, want 0.055, half way into the last bucket", got)
	}
	if got := (window{after, after}).quantile("lat", 0.5); got != 0 {
		t.Errorf("an empty window has quantile %v, want 0", got)
	}
	if got := w.delta("lat_bucket", "le", "0.1"); got != 100 {
		t.Errorf("delta of one series = %v, want 100", got)
	}
}

// The parser against the real thing: a node that has taken one batch,
// rendered by obs.Registry.WritePrometheus and scraped over HTTP.
func TestScrapeOfARunningNode(t *testing.T) {
	r := newTestRun(t)
	n := startNode(r, r.dir("data"))
	defer n.stop()
	c := newClient(r, n.url)
	res, err := c.Ingest(context.Background(), repeatBatch(appLog(), 0, nil))
	if err != nil || res.TotalQueries != batchEntries {
		t.Fatalf("ingest: %+v, %v", res, err)
	}
	var buf bytes.Buffer
	if err := n.srv.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	direct, err := parseProm(&buf)
	if err != nil {
		t.Fatal(err)
	}
	scraped, err := scrapeURL(n.url)
	if err != nil {
		t.Fatal(err)
	}
	for _, sc := range []scrape{direct, scraped} {
		if got := sc.total("logr_ingest_queries_total"); got != batchEntries {
			t.Errorf("logr_ingest_queries_total = %v, want %d", got, batchEntries)
		}
		if got := sc.total("logr_http_requests_total", "route", "/ingest"); got != 1 {
			t.Errorf("logr_http_requests_total{route=/ingest} = %v, want 1", got)
		}
		if sc.total("logr_wal_flushes_total") < 1 || sc.total("logr_wal_flush_bytes_total") < batchEntries {
			t.Errorf("WAL counters missing: %v flushes, %v bytes", sc.total("logr_wal_flushes_total"), sc.total("logr_wal_flush_bytes_total"))
		}
		edges, counts := sc.buckets("logr_wal_flush_batch_bytes", nil)
		if len(edges) < 2 || !math.IsInf(edges[len(edges)-1], 1) || counts[len(counts)-1] != sc.total("logr_wal_flush_batch_bytes_count") {
			t.Errorf("flush-size histogram: edges %v, counts %v, _count %v", edges, counts, sc.total("logr_wal_flush_batch_bytes_count"))
		}
	}
	if q := (window{nil, scraped}).quantile("logr_wal_flush_batch_bytes", 0.5); q <= 0 {
		t.Errorf("median flush size %v, want a positive bucket estimate", q)
	}
}
