package gateway

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"logr"
	"logr/client"
	"logr/internal/server"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire/*.golden from the current code")

// handlerTransport routes each request to the in-process handler named by
// its URL host, so a gateway over fixed shard names ("http://shard-a")
// places entries by rendezvous identically on every run.
type handlerTransport map[string]http.Handler

func (t handlerTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	h, ok := t[r.URL.Host]
	if !ok {
		return nil, fmt.Errorf("no handler for host %q", r.URL.Host)
	}
	if r.Body == nil {
		r.Body = http.NoBody
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec.Result(), nil
}

// wireNode is one durable logrd over a temp dir.
func wireNode(t *testing.T) *server.Server {
	t.Helper()
	w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return server.New(w, server.Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}})
}

// wireScenario ingests three rounds through h, sealing after each, so
// every node holds three segments.
func wireScenario(t *testing.T, h http.Handler) {
	t.Helper()
	c := client.New("http://node").WithTransport(handlerTransport{"node": h})
	ctx := context.Background()
	for round := 0; round < 3; round++ {
		if _, err := c.Ingest(ctx, gwEntries(40, 40*round)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Seal(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// wireRoutes are the routes whose JSON the golden files pin, in the order
// they are fetched.
var wireRoutes = []struct{ name, path string }{
	{"stats", "/stats"},
	{"segments", "/segments"},
	{"estimate", "/estimate?q=" + escapeQ("SELECT c0 FROM messages WHERE k0 = ?")},
	{"drift", "/drift"},
	{"healthz", "/healthz"},
}

// flattenJSON renders a decoded JSON value as sorted "path = value"
// lines. Values under a key in skip are replaced by "*": the key must be
// present, its value is not deterministic (a temp directory).
func flattenJSON(prefix string, v any, skip map[string]bool, out *[]string) {
	switch x := v.(type) {
	case map[string]any:
		for k, e := range x {
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			if skip[k] {
				*out = append(*out, p+" = *")
				continue
			}
			flattenJSON(p, e, skip, out)
		}
	case []any:
		if len(x) == 0 {
			*out = append(*out, prefix+" = []")
		}
		for i, e := range x {
			flattenJSON(fmt.Sprintf("%s[%d]", prefix, i), e, skip, out)
		}
	case float64:
		*out = append(*out, prefix+" = "+strconv.FormatFloat(x, 'g', -1, 64))
	default:
		b, _ := json.Marshal(x)
		*out = append(*out, prefix+" = "+string(b))
	}
}

// sameWireLine compares two flattened lines: equal text, or equal paths
// whose numeric values agree to 1e-9 relative (float fusion may move the
// last bits of an estimate on another platform; that is not a wire
// change).
func sameWireLine(a, b string) bool {
	if a == b {
		return true
	}
	pa, va, ok1 := strings.Cut(a, " = ")
	pb, vb, ok2 := strings.Cut(b, " = ")
	if !ok1 || !ok2 || pa != pb {
		return false
	}
	fa, err1 := strconv.ParseFloat(va, 64)
	fb, err2 := strconv.ParseFloat(vb, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(fa-fb) <= 1e-9*math.Max(math.Abs(fa), math.Abs(fb))
}

func checkWireGolden(t *testing.T, name string, h http.Handler, path string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	var v any
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("%s: decoding %q: %v", name, rec.Body.String(), err)
	}
	var lines []string
	flattenJSON("", v, map[string]bool{"dir": true}, &lines)
	sort.Strings(lines)
	got := fmt.Sprintf("status = %d\n%s\n", rec.Code, strings.Join(lines, "\n"))
	file := filepath.Join("testdata", "wire", name+".golden")
	if *updateWire {
		if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(file, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) != len(have) {
		t.Fatalf("%s: %d lines, golden has %d\ngot:\n%s", name, len(have), len(want), got)
	}
	for i := range want {
		if !sameWireLine(want[i], have[i]) {
			t.Errorf("%s line %d: got %q, golden %q", name, i+1, have[i], want[i])
		}
	}
}

// TestWireGolden pins the JSON the daemon and the gateway send on
// /stats, /segments, /estimate, /drift and /healthz: every key path and
// every deterministic value, for one in-process node and for a gateway
// over two in-process shards fed the same scenario. Regenerate with
// go test ./internal/gateway -run TestWireGolden -update-wire.
func TestWireGolden(t *testing.T) {
	node := wireNode(t).Handler()
	wireScenario(t, node)
	for _, r := range wireRoutes {
		checkWireGolden(t, "node_"+r.name, node, r.path)
	}

	shards := handlerTransport{"shard-a": wireNode(t).Handler(), "shard-b": wireNode(t).Handler()}
	g, err := New(Options{
		Shards:        []string{"http://shard-a", "http://shard-b"},
		Transport:     shards,
		HedgeMin:      time.Hour,
		HedgeMax:      time.Hour,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { g.Close() })
	wireScenario(t, g.Handler())
	g.probeOnce()
	for _, r := range wireRoutes {
		checkWireGolden(t, "gateway_"+r.name, g.Handler(), r.path)
	}
}
