// Serving: the durable ingest/analytics loop end to end, in one process —
// open a WAL-backed workload, serve it over HTTP with the logrd serving
// layer, drive it through the Go client, shut down gracefully, and reopen
// the directory to show that everything acknowledged survived.
//
// In production the server side is the logrd binary (or `logr serve`) and
// the client side is package logr/client speaking to it over the network;
// this example simply runs both halves in one process.
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"

	"logr"
	"logr/client"
	"logr/internal/server"
)

func main() {
	dir, err := os.MkdirTemp("", "logr-serving-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// A durable workload: every Append is WAL-logged before it applies,
	// and checkpoints bound how much of the log a restart replays.
	w, err := logr.OpenDir(dir, logr.Options{
		Sync:             logr.SyncAlways, // each acknowledged batch survives a crash
		SegmentThreshold: 5000,            // auto-seal every ~5k queries
	})
	if err != nil {
		log.Fatal(err)
	}

	srv := server.New(w, server.Options{Compress: logr.CompressOptions{Clusters: 4, Seed: 1}})
	ts := httptest.NewServer(srv.Handler())

	ctx := context.Background()
	c := client.New(ts.URL)
	if _, err := c.Ingest(ctx, []logr.Entry{
		{SQL: "SELECT _id, _time FROM messages WHERE status = ?", Count: 4000},
		{SQL: "SELECT _id, sms_type FROM messages WHERE status = ? AND transport_type = ?", Count: 1200},
		{SQL: "SELECT name, chat_id FROM contacts WHERE circle_id = ?", Count: 700},
		{SQL: "SELECT job_name FROM batch_jobs WHERE status != 'DONE'", Count: 100},
	}); err != nil {
		log.Fatal(err)
	}
	if _, err := c.Seal(ctx); err != nil {
		log.Fatal(err)
	}

	est, err := c.Estimate(ctx, "SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		log.Fatal(err)
	}
	exact, err := c.Count(ctx, "SELECT _id FROM messages WHERE status = ?")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate: %.1f%% of the workload (%.0f queries); exact: %d\n",
		est.Frequency*100, est.Count, exact)

	// the binary summary artifact ships to the client whole: analytics then
	// run locally with no further round trips
	sum, err := c.Summary(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("downloaded summary: %d clusters over a %d-feature universe\n",
		sum.Clusters(), sum.Epoch().Universe)

	// graceful shutdown: drain HTTP, seal the ingest tail, sync the WAL
	ts.Close()
	w.Seal()
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}

	// recovery: reopen the directory — the checkpoint restores and the WAL
	// tail replays
	re, err := logr.OpenDir(dir, logr.Options{Sync: logr.SyncAlways, SegmentThreshold: 5000})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reopened: %d queries, %d segments — nothing lost\n",
		re.Queries(), len(re.Segments()))
	if err := re.Close(); err != nil {
		log.Fatal(err)
	}
}
