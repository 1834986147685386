// Quickstart: compress a small query log with LogR, inspect the summary,
// and estimate workload statistics from it — the end-to-end loop of the
// paper in ~60 lines.
package main

import (
	"fmt"
	"log"

	"logr"
)

func main() {
	// A miniature access log: three workloads with heavy skew. Constants
	// vary (the regularizer scrubs them) and one query carries an OR (the
	// rewriter turns it into a union of conjunctive queries).
	w := logr.FromEntries([]logr.Entry{
		{SQL: "SELECT _id, _time FROM messages WHERE status = 1", Count: 4000},
		{SQL: "SELECT _id, _time FROM messages WHERE status = 7", Count: 2500},
		{SQL: "SELECT _id, sms_type FROM messages WHERE status = ? AND transport_type = ?", Count: 1200},
		{SQL: "SELECT name, chat_id FROM contacts WHERE circle_id = 'family'", Count: 700},
		{SQL: "SELECT name FROM contacts WHERE chat_id = ? OR circle_id = ?", Count: 300},
		{SQL: "SELECT job_name, status FROM batch_jobs WHERE status != 'DONE'", Count: 300},
	})

	s := w.Stats()
	fmt.Printf("log: %d queries, %d distinct (%d after constant removal)\n",
		s.Queries, s.DistinctQueries, s.DistinctNoConst)

	// Compress: the fewest clusters (at most 8) whose summary is within
	// 0.05 nats of lossless.
	sum, err := w.Compress(logr.CompressOptions{TargetError: 0.05, MaxClusters: 8, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("summary: %d clusters, verbosity %d, reproduction error %.4f nats\n\n",
		sum.Clusters(), sum.TotalVerbosity(), sum.Error())

	// The summary is human-readable (paper Figure 1a / Figure 10).
	fmt.Println(sum.Visualize())

	// Aggregate statistics come straight off the summary — no raw log scan.
	for _, probe := range []string{
		"SELECT * FROM messages WHERE status = ?",
		"SELECT * FROM contacts",
		"SELECT * FROM messages WHERE status = ? AND transport_type = ?",
	} {
		est, err := sum.EstimateCount(probe)
		if err != nil {
			log.Fatal(err)
		}
		truth, err := w.Count(probe)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-64s est %7.0f   true %7d\n", probe, est, truth)
	}
}
