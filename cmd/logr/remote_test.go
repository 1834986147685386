package main

import (
	"context"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logr"
	"logr/internal/gateway"
	"logr/internal/server"
)

// TestRemoteShardList drives `logr remote -addr a,b`, an in-process
// gateway over two shards, through every mutating verb and the summary
// download: entries land on their rendezvous owners, and every verb the
// single-daemon switch knows works against the shard list and against a
// real gateway's address.
func TestRemoteShardList(t *testing.T) {
	ctx := context.Background()
	var addrs []string
	var shards []*logr.Workload
	for i := 0; i < 2; i++ {
		w, err := logr.OpenDir(t.TempDir(), logr.Options{Sync: logr.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(w, server.Options{Compress: logr.CompressOptions{Clusters: 2, Seed: 1}}).Handler())
		t.Cleanup(func() { ts.Close(); w.Close() })
		addrs = append(addrs, ts.URL)
		shards = append(shards, w)
	}

	dir := t.TempDir()
	logFile := filepath.Join(dir, "log.sql")
	var body strings.Builder
	want := make([]int, len(addrs))
	for i := 0; i < 40; i++ {
		sql := fmt.Sprintf("SELECT c%d FROM t%d WHERE k = ?", i%5, i%4)
		count := 1 + i%3
		fmt.Fprintf(&body, "%d\t%s\n", count, sql)
		want[gateway.Owner(sql, addrs)] += count
	}
	if err := os.WriteFile(logFile, []byte(body.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	remote := func(addr string, args ...string) {
		t.Helper()
		if err := runRemote(ctx, append([]string{"-addr", addr}, args...)); err != nil {
			t.Fatalf("remote %v: %v", args, err)
		}
	}
	shardList := strings.Join(addrs, ",")

	// two ingest+seal rounds: each shard holds twice its owned share in
	// two segments
	for round := 1; round <= 2; round++ {
		remote(shardList, "ingest", "-in", logFile)
		remote(shardList, "seal")
		for i, w := range shards {
			if got := w.Queries(); got != round*want[i] {
				t.Fatalf("round %d: shard %d holds %d queries, gateway.Owner assigns it %d", round, i, got, round*want[i])
			}
			if n := len(w.Segments()); n != round {
				t.Fatalf("round %d: shard %d has %d segments", round, i, n)
			}
		}
	}
	remote(shardList, "segments")
	g, err := gateway.New(gateway.Options{Shards: addrs})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	gw := httptest.NewServer(g.Handler())
	defer gw.Close()
	remote(gw.URL, "segments")

	out := filepath.Join(dir, "cluster.lgrs")
	remote(shardList, "summary", "-out", out)
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := logr.ReadSummary(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if got := sum.Epoch().TotalQueries; got != 2*(want[0]+want[1]) {
		t.Fatalf("merged summary covers %d queries, want %d", got, 2*(want[0]+want[1]))
	}
	if err := runRemote(ctx, []string{"-addr", shardList, "summary", "-from", "0", "-to", "1", "-out", out + ".range"}); err == nil {
		t.Fatal("a seal-id range over a shard list succeeded; seal ids are per shard")
	}

	remote(shardList, "compact", "-min", "1000000")
	for i, w := range shards {
		if n := len(w.Segments()); n != 1 {
			t.Fatalf("shard %d has %d segments after compact, want 1", i, n)
		}
	}
	remote(shardList, "drop", "-id", "2")
	for i, w := range shards {
		if n := len(w.Segments()); n != 0 {
			t.Fatalf("shard %d has %d segments after drop, want 0", i, n)
		}
	}
}
