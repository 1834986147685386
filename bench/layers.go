package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"logr"
	"logr/client"
	"logr/internal/bitvec"
	"logr/internal/cluster"
	"logr/internal/feature"
	"logr/internal/gateway"
	"logr/internal/maxent"
	"logr/internal/regularize"
	"logr/internal/server"
	"logr/internal/sqlparser"
	"logr/internal/vfs"
	"logr/internal/wal"
	"logr/internal/workload"
)

// The per-layer numbers of the traced run. They come from three places,
// all in the benchmark's own files: spans around the calls into each layer
// (span.go), the servers' own counters scraped from /metrics before and
// after the window (prom.go), and a layer replay that feeds a sample of
// the run's generated batches through each layer's public functions in
// pipeline order.

// replayBatches is how many of a workload's batches the replay feeds
// through the layers.
const replayBatches = 64

// tracedWindow brackets the measured window of a traced run.
type tracedWindow struct {
	tr    *tracer
	front string // where the clients send: the node, or the gateway
	nodes []*node
	from  int64 // trace time at which the window opened

	frontWin window
	nodeWin  window

	stop, done         chan struct{}
	queueMax, lagBytes float64
}

// beginTracedWindow scrapes the servers and starts polling their gauges
// every 100 ms; on an untraced run it returns nil, whose end is a no-op.
func beginTracedWindow(r *run, front string, nodes ...*node) *tracedWindow {
	if r.tr == nil {
		return nil
	}
	tw := &tracedWindow{tr: r.tr, front: front, nodes: nodes, stop: make(chan struct{}), done: make(chan struct{})}
	tw.frontWin.before, tw.nodeWin.before = tw.scrapeAll()
	tw.from = int64(time.Since(r.tr.t0))
	go tw.poll()
	return tw
}

func (tw *tracedWindow) scrapeAll() (front, nodes scrape) {
	front, err := scrapeURL(tw.front)
	must(err)
	for _, n := range tw.nodes {
		s, err := scrapeURL(n.url)
		must(err)
		nodes = append(nodes, s...)
	}
	return front, nodes
}

func (tw *tracedWindow) poll() {
	defer close(tw.done)
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-tw.stop:
			return
		case <-tick.C:
			for _, n := range tw.nodes {
				s, err := scrapeURL(n.url)
				if err != nil {
					continue
				}
				tw.queueMax = max(tw.queueMax, s.total("logr_apply_queue_depth"))
				tw.lagBytes = max(tw.lagBytes, s.total("logr_ingest_lag_bytes"))
			}
		}
	}
}

func (tw *tracedWindow) end() {
	if tw == nil {
		return
	}
	close(tw.stop)
	<-tw.done
	tw.frontWin.after, tw.nodeWin.after = tw.scrapeAll()
}

// spansIn returns the spans that began inside the window.
func (tw *tracedWindow) spansIn() []span {
	var out []span
	for _, s := range tw.tr.snapshot() {
		if s.Start >= tw.from {
			out = append(out, s)
		}
	}
	return out
}

func frac(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// layers turns the window's scrapes and spans into the wal, store,
// server, client and gateway metrics. acked is the queries acknowledged
// inside the window and ackMs the latencies of its batches.
func (tw *tracedWindow) layers(r *run, acked int64, ackMs []float64) {
	nw, q := tw.nodeWin, float64(acked)
	r.layer("wal.bytes_per_query", frac(nw.delta("logr_wal_flush_bytes_total"), q), 1)
	r.layer("wal.flushes", nw.delta("logr_wal_flushes_total"), 1)
	fsyncs, coalesced := nw.delta("logr_wal_fsyncs_total"), nw.delta("logr_wal_fsync_coalesced_total")
	r.layer("wal.fsyncs", fsyncs, 1)
	r.layer("wal.fsync_coalesced_frac", frac(coalesced, coalesced+fsyncs), 1)
	r.layer("wal.flush_batch_bytes_p50", nw.quantile("logr_wal_flush_batch_bytes", 0.5), int(nw.delta("logr_wal_flush_batch_bytes_count")))
	r.layer("wal.fsync_ms_p99", nw.quantile("logr_wal_fsync_seconds", 0.99)*1e3, int(fsyncs))
	r.layer("wal.rotations", nw.delta("logr_wal_rotations_total"), 1)

	r.layer("store.barrier_wait_ms_p99", nw.quantile("logr_barrier_wait_seconds", 0.99)*1e3, int(nw.delta("logr_barrier_wait_seconds_count")))
	r.layer("store.apply_queue_depth_max", tw.queueMax, 1)
	r.layer("store.ingest_lag_bytes_max", tw.lagBytes, 1)
	seals := nw.delta("logr_seal_summary_seconds_count")
	r.layer("store.seals", seals, 1)
	r.layer("store.seal_ms_p50", nw.quantile("logr_seal_summary_seconds", 0.5)*1e3, int(seals))
	r.layer("store.segments_persisted", nw.delta("logr_segments_persisted_total"), 1)
	r.layer("store.checkpoints", nw.delta("logr_checkpoints_total"), 1)
	r.layer("store.checkpoint_bytes_per_query", frac(nw.delta("logr_checkpoint_bytes_total"), q), 1)
	r.layer("store.io_retries", nw.delta("logr_store_io_retries_total"), 1)
	r.layer("store.degraded_events", nw.delta("logr_store_degraded_total"), 1)
	var segBytes, held int64
	for _, n := range tw.nodes {
		segBytes += dirBytes(filepath.Join(n.dir, "segments"))
		held += int64(n.w.Queries())
	}
	r.layer("store.segment_bytes_per_query", frac(float64(segBytes), float64(held)), 1)

	hits, misses := nw.delta("logr_summary_cache_hits_total"), nw.delta("logr_summary_cache_misses_total")
	r.layer("server.estimate_cache_hit_frac", frac(hits, hits+misses), int(hits+misses))
	r.layer("server.backpressure_429", nw.delta("logr_ingest_backpressure_total"), 1)
	r.layer("server.degraded_503", nw.delta("logr_degraded_rejections_total"), 1)
	r.layer("server.ack_p99_ms", percentile(sortedCopy(ackMs), 99), len(ackMs))

	agg := aggregate(tw.spansIn())
	spanUs := func(name string, self bool) (float64, int) {
		st := agg[name]
		if st == nil {
			return 0, 0
		}
		if self {
			return mean(st.self) * 1e3, len(st.self)
		}
		return mean(st.dur) * 1e3, len(st.dur)
	}
	v, n := spanUs("server/ingest", false)
	r.layer("server.handler_us_per_batch", v, n)
	v, n = spanUs("client.roundtrip/ingest", true)
	r.layer("server.http_overhead_us_per_batch", v, n)
	v, n = spanUs("client.ingest", true)
	r.layer("client.marshal_us_per_batch", v, n)

	if len(tw.nodes) < 2 {
		return
	}
	fw := tw.frontWin
	var calls, fanout []float64
	for name, st := range agg {
		switch {
		case strings.HasPrefix(name, "gateway.shard_call/"):
			calls = append(calls, st.dur...)
		case strings.HasPrefix(name, "gateway/"):
			fanout = append(fanout, st.self...)
		}
	}
	sorted := sortedCopy(calls)
	r.layer("gateway.shard_call_ms_p50", percentile(sorted, 50), len(sorted))
	r.layer("gateway.shard_call_ms_p99", percentile(sorted, 99), len(sorted))
	r.layer("gateway.fanout_self_ms", mean(fanout), len(fanout))
	r.layer("gateway.merge_ms_p50", fw.quantile("logr_merge_seconds", 0.5)*1e3, int(fw.delta("logr_merge_seconds_count")))
	hits, misses = fw.delta("logr_summary_epoch_cache_hits_total"), fw.delta("logr_summary_epoch_cache_misses_total")
	r.layer("gateway.epoch_cache_hit_frac", frac(hits, hits+misses), int(hits+misses))
	fired := fw.delta("logr_hedge_fired_total")
	r.layer("gateway.hedge_fired", fired, 1)
	r.layer("gateway.hedge_wasted_frac", frac(fw.delta("logr_hedge_wasted_total"), fired), int(fired))
	r.layer("gateway.spilled", fw.delta("logr_ingest_spilled_total"), 1)
	r.layer("gateway.rejected", fw.delta("logr_ingest_rejected_total"), 1)
	var most, sum float64
	for _, n := range tw.nodes {
		most, sum = max(most, float64(n.w.Queries())), sum+float64(n.w.Queries())
	}
	r.layer("gateway.shard_skew", frac(most, sum/float64(len(tw.nodes))), len(tw.nodes))
}

// missLatency measures an estimate served from the node's cached summary
// (a read-only phase) against one that follows a write and so pays the
// refresh of the summary.
func missLatency(r *run, n *node, c *client.Client, probes []string, batches [][]logr.Entry) {
	ctx := context.Background()
	timed := func(q string) float64 {
		t0 := time.Now()
		_, err := c.Estimate(ctx, q)
		r.check(err == nil, "estimate %q: %v", q, err)
		return float64(time.Since(t0)) / 1e3
	}
	timed(probes[0])
	var hit, miss []float64
	for i := 0; i < 200; i++ {
		hit = append(hit, timed(probes[i%len(probes)]))
	}
	for i := 0; i < min(10, len(batches)); i++ {
		_, err := c.Ingest(ctx, batches[i])
		r.check(err == nil, "ingest: %v", err)
		miss = append(miss, timed(probes[i%len(probes)]))
	}
	r.layer("server.estimate_hit_us", mean(hit), len(hit))
	r.layer("server.estimate_miss_us", mean(miss), len(miss))
}

// replayInput is what the layer replay works from.
type replayInput struct {
	batches [][]logr.Entry
	probes  []string
	// durable marks a workload that uses the WAL, the store and the
	// serving layer; their replay is skipped otherwise and reports 0.
	durable bool
	node    *node // whose registry the scrape timing renders
	cluster *clusterState
}

// step runs fn inside a replay span and returns how long it took.
func step(r *run, parent span, name string, fn func()) time.Duration {
	s := r.tr.begin("replay."+name, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	r.tr.end(s)
	return d
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

func replayLayers(r *run, in replayInput) {
	root := r.tr.begin("replay", span{})
	defer func() { r.tr.end(root) }()
	var sqls []string
	queries := 0
	for _, b := range in.batches {
		for _, e := range b {
			sqls = append(sqls, e.SQL)
			queries += e.Count
		}
	}
	nStmts := float64(len(sqls))

	// sqlparser → regularize → feature, statement by statement
	stmts := make([]sqlparser.Statement, 0, len(sqls))
	fails := 0
	d := step(r, root, "sqlparser.Parse", func() {
		for _, q := range sqls {
			st, err := sqlparser.Parse(q)
			if err != nil {
				fails++
				continue
			}
			stmts = append(stmts, st)
		}
	})
	r.layer("sqlparser.parse_us_per_stmt", us(d)/nStmts, len(sqls))
	r.layer("sqlparser.stmts", nStmts, 1)
	r.layer("sqlparser.fail_frac", float64(fails)/nStmts, len(sqls))
	regs := make([]regularize.Result, len(stmts))
	blocks := 0
	d = step(r, root, "regularize.Regularize", func() {
		for i, st := range stmts {
			regs[i] = regularize.Regularize(st, regularize.DefaultOptions)
			blocks += len(regs[i].Blocks)
		}
	})
	r.layer("regularize.us_per_stmt", us(d)/nStmts, len(stmts))
	r.layer("regularize.blocks_per_stmt", float64(blocks)/nStmts, len(stmts))
	book := feature.NewCodebook(feature.AligonScheme)
	d = step(r, root, "feature.Codebook.Extract", func() {
		for _, reg := range regs {
			for _, blk := range reg.Blocks {
				book.Extract(blk)
			}
		}
	})
	r.layer("feature.extract_us_per_stmt", us(d)/nStmts, len(stmts))
	r.layer("feature.codebook_size", float64(book.Size()), 1)

	// workload.Encoder: the same statements as batches, then its snapshot
	// and its checkpointed state
	enc := workload.NewEncoder(workload.EncodeOptions{})
	internal := make([][]workload.LogEntry, len(in.batches))
	for i, b := range in.batches {
		internal[i] = make([]workload.LogEntry, len(b))
		for j, e := range b {
			internal[i][j] = workload.LogEntry{SQL: e.SQL, Count: e.Count}
		}
	}
	encD := step(r, root, "workload.Encoder.AddBatch", func() {
		for _, b := range internal {
			enc.AddBatch(b)
		}
	})
	var res workload.EncodeResult
	d = step(r, root, "workload.Encoder.Result", func() { res = enc.Result() })
	distinct := float64(res.Stats.DistinctQueries)
	r.layer("workload.addbatch_us_per_query", us(encD)/float64(queries), len(in.batches))
	r.layer("workload.encode_qps", float64(queries)/encD.Seconds(), len(in.batches))
	// the dedup path's hit rate is the live store's where there is one: the
	// replay sees only a sample of the run's statements
	seen, seenDistinct := nStmts, distinct
	if in.node != nil {
		st := in.node.w.Stats()
		seen, seenDistinct = float64(st.Queries), float64(st.DistinctQueries)
	}
	r.layer("workload.dedup_hit_frac", 1-seenDistinct/seen, int(seen))
	r.layer("workload.distinct_raw", seenDistinct, 1)
	r.layer("workload.result_ms", ms(d), 1)
	var state []byte
	step(r, root, "workload.Encoder.AppendState", func() { state = enc.AppendState(nil) })
	r.layer("workload.state_bytes_per_distinct", float64(len(state))/distinct, 1)
	d = step(r, root, "workload.RestoreEncoder", func() {
		_, _, err := workload.RestoreEncoder(workload.EncodeOptions{}, state)
		r.check(err == nil, "RestoreEncoder: %v", err)
	})
	r.layer("workload.restore_ms", ms(d), 1)

	// bitvec, cluster and maxent on the encoded log
	pts := res.Log.Binary()
	out := make([]int, len(pts.Vecs))
	const andRounds = 200
	d = step(r, root, "bitvec.Vector.AndCountInto", func() {
		for i := 0; i < andRounds; i++ {
			pts.Vecs[i%len(pts.Vecs)].AndCountInto(pts.Vecs, out)
		}
	})
	r.layer("bitvec.andcount_ns_per_vec", float64(d)/float64(andRounds*len(pts.Vecs)), andRounds*len(pts.Vecs))
	d = step(r, root, "cluster.KMeansBinary", func() {
		cluster.KMeansBinary(pts, cluster.KMeansOptions{K: 30, Seed: 1})
	})
	r.layer("cluster.kmeans_ms_k30", ms(d), 1)
	hierD := step(r, root, "cluster.HierarchicalBinaryP", func() {
		cluster.HierarchicalBinaryP(pts, cluster.BinaryMetricFunc(cluster.Hamming, 0), 0).Cut(8)
	})
	r.layer("cluster.hier_ms", ms(hierD), 1)
	replayMaxent(r, root, res)

	// core, through the public summary API
	flat := make([]logr.Entry, 0, len(sqls))
	for _, b := range in.batches[:len(in.batches)-1] {
		flat = append(flat, b...)
	}
	w := logr.FromEntries(flat)
	var s8, s30 *logr.Summary
	compress := func(name string, opts logr.CompressOptions) (*logr.Summary, time.Duration) {
		var s *logr.Summary
		d := step(r, root, name, func() {
			var err error
			s, err = w.Compress(opts)
			must(err)
		})
		return s, d
	}
	s8, d = compress("logr.Compress.k8", servedSummary)
	r.layer("core.compress_ms_k8", ms(d), 1)
	s30, k30D := compress("logr.Compress.k30", logr.CompressOptions{Clusters: 30, Seed: 1})
	r.layer("core.compress_ms_k30", ms(k30D), 1)
	r.layer("core.verbosity_k30", float64(s30.TotalVerbosity()), 1)
	_, sweepD := compress("logr.Compress.sweep", logr.CompressOptions{TargetError: 0.05, MaxClusters: 30, Seed: 1})
	r.layer("core.sweep_ms", ms(sweepD), 1)
	var buf bytes.Buffer
	saveD := step(r, root, "logr.Summary.Save", func() { must(s30.Save(&buf)) })
	r.layer("core.save_ms", ms(saveD), 1)
	r.layer("core.summary_bytes", float64(buf.Len()), 1)
	var back *logr.Summary
	readD := step(r, root, "logr.ReadSummary", func() {
		var err error
		back, err = logr.ReadSummary(bytes.NewReader(buf.Bytes()))
		must(err)
	})
	r.layer("core.read_summary_ms", ms(readD), 1)
	estD := step(r, root, "logr.Summary.EstimateCount", func() {
		for _, q := range in.probes {
			back.EstimateCount(q)
		}
	})
	r.layer("core.estimate_us", us(estD)/float64(len(in.probes)), len(in.probes))
	must(w.Append(in.batches[len(in.batches)-1]))
	d = step(r, root, "logr.Workload.Recompress", func() {
		_, err := w.Recompress(s8, logr.RecompressOptions{CompressOptions: servedSummary})
		must(err)
	})
	r.layer("core.recompress_delta_ms", ms(d), 1)

	if !in.durable {
		// a batch caller's iteration is encode, the three compressions, save,
		// read back and the probes
		layers := encD + k30D + sweepD + hierD + saveD + readD + estD
		r.layer("bench.layers_sum_over_e2e", frac(layers.Seconds(), r.layers["core.compress_s"].Value), 1)
		return
	}
	replayMerge(r, root, flat)
	perBatch := replayDurable(r, root, in)
	perBatch += r.layers["client.marshal_us_per_batch"].Value + r.layers["server.http_overhead_us_per_batch"].Value
	r.layer("bench.layers_sum_over_e2e", frac(perBatch, r.e2e["ack_p50_ms"].Value*1e3), 1)
	if in.cluster != nil {
		replayGateway(r, root, in)
	}
}

// replayMaxent fits a maximum-entropy distribution to the log's feature
// marginals and a few two-feature patterns cut from its vectors, then
// reads pattern marginals back.
func replayMaxent(r *run, root span, res workload.EncodeResult) {
	n := res.Log.Universe()
	var patterns []maxent.Constraint
	var probes []bitvec.Vector
	used := map[int]bool{}
	for i := 0; i < res.Log.Distinct(); i++ {
		idx := res.Log.Vector(i).Indices()
		if len(idx) < 2 {
			continue
		}
		b := bitvec.FromIndices(n, idx[0], idx[1])
		probes = append(probes, b)
		// constraints over disjoint features keep every block small
		if len(patterns) < 8 && !used[idx[0]] && !used[idx[1]] {
			used[idx[0]], used[idx[1]] = true, true
			patterns = append(patterns, maxent.Constraint{Pattern: b, Target: res.Log.Marginal(b)})
		}
	}
	if len(probes) == 0 {
		return
	}
	var dist *maxent.Dist
	d := step(r, root, "maxent.Fit", func() {
		var err error
		dist, err = maxent.Fit(n, res.Log.FeatureMarginals(), patterns, maxent.Options{})
		r.check(err == nil, "maxent.Fit: %v", err)
	})
	r.layer("maxent.fit_ms", ms(d), 1)
	if dist == nil {
		return
	}
	d = step(r, root, "maxent.Dist.PatternMarginal", func() {
		for _, b := range probes {
			dist.PatternMarginal(b)
		}
	})
	r.layer("maxent.pattern_marginal_us", us(d)/float64(len(probes)), len(probes))
}

// replayAddrs stand in for shard addresses where only the partition
// matters.
var replayAddrs = []string{"http://shard-a", "http://shard-b", "http://shard-c"}

// replayMerge partitions the entries the way the gateway would, summarizes
// each part as a shard would, ships the summaries as artifacts and times
// their merge.
func replayMerge(r *run, root span, entries []logr.Entry) {
	parts := make([][]logr.Entry, len(replayAddrs))
	for _, e := range entries {
		o := gateway.Owner(e.SQL, replayAddrs)
		parts[o] = append(parts[o], e)
	}
	var sums []*logr.Summary
	for _, p := range parts {
		if len(p) == 0 {
			continue
		}
		s, err := logr.FromEntries(p).Compress(servedSummary)
		must(err)
		var buf bytes.Buffer
		must(s.Save(&buf))
		back, err := logr.ReadSummary(&buf)
		must(err)
		sums = append(sums, back.WithError(s.Error()))
	}
	d := step(r, root, "logr.MergeSummaries", func() {
		_, err := logr.MergeSummaries(sums, logr.MergeSummariesOptions{})
		r.check(err == nil, "MergeSummaries: %v", err)
	})
	r.layer("core.merge_ms", ms(d), 1)
}

// replayDurable feeds the batches through the serving layer's decoders, a
// scratch WAL and a scratch durable store, and returns the per-batch cost
// in µs of the steps an acknowledgement waits for.
func replayDurable(r *run, root span, in replayInput) (perBatchUs float64) {
	nb := float64(len(in.batches))
	bodies := make([][]byte, len(in.batches))
	texts := make([][]byte, len(in.batches))
	queries := 0
	for i, b := range in.batches {
		var err error
		bodies[i], err = json.Marshal(client.IngestRequest{Entries: b})
		must(err)
		var sb bytes.Buffer
		for _, e := range b {
			sb.WriteString(strconv.Itoa(e.Count))
			sb.WriteByte('\t')
			sb.WriteString(e.SQL)
			sb.WriteByte('\n')
			queries += e.Count
		}
		texts[i] = sb.Bytes()
	}
	d := step(r, root, "server.decode.json", func() {
		for _, body := range bodies {
			var req client.IngestRequest
			must(json.Unmarshal(body, &req))
		}
	})
	r.layer("server.decode_us_per_batch", us(d)/nb, len(bodies))
	perBatchUs = us(d) / nb
	step(r, root, "server.ReadIngestBody", func() {
		for _, text := range texts {
			_, err := server.ReadIngestBody(bytes.NewReader(text), 0)
			must(err)
		}
	})

	// wal: the same payloads, appended and committed one batch at a time
	scratch := r.dir("replay")
	log, err := wal.Create(vfs.OS, filepath.Join(scratch, walFile), 0, wal.Options{Sync: wal.SyncInterval, Interval: 100 * time.Millisecond})
	must(err)
	d = step(r, root, "wal.Log.AppendBatch+Commit", func() {
		for _, text := range texts {
			end, err := log.AppendBatch([][]byte{text})
			must(err)
			must(log.Commit(end))
		}
	})
	must(log.Close())
	r.layer("wal.append_commit_us_per_batch", us(d)/nb, len(texts))
	// a crash image's own WAL is whatever the last checkpoint left of it,
	// often a few bytes; the one just written holds all the batches
	if info, err := os.Stat(filepath.Join(scratch, walFile)); err == nil && info.Size() > 0 {
		const scans = 20
		d = step(r, root, "wal.Scan", func() {
			for i := 0; i < scans; i++ {
				_, err := wal.Scan(vfs.OS, filepath.Join(scratch, walFile), func([]byte, int64) error { return nil })
				r.check(err == nil, "wal.Scan: %v", err)
			}
		})
		r.layer("wal.scan_mb_per_s", float64(scans*info.Size())/1e6/d.Seconds(), scans)
	}

	// store: direct Append with the read barrier the handler's
	// acknowledgement also waits on, then a sealed range
	w, err := logr.OpenDir(filepath.Join(scratch, "store"), storeOptions(nil))
	must(err)
	half := len(in.batches) / 2
	d = step(r, root, "logr.Workload.Append", func() {
		for i, b := range in.batches {
			must(w.Append(b))
			w.Queries()
			if i == half {
				w.Seal()
			}
		}
	})
	r.layer("store.append_us_per_query", us(d)/float64(queries), len(in.batches))
	perBatchUs += us(d) / nb
	w.Seal()
	if from, to, ok := w.SealedRange(); ok {
		d = step(r, root, "logr.Workload.CompressRange", func() {
			_, err := w.CompressRange(from, to, servedSummary)
			r.check(err == nil, "CompressRange: %v", err)
		})
		r.layer("store.compress_range_ms", ms(d), 1)
	}
	must(w.Close())

	if in.node != nil {
		const scrapes = 20
		d = step(r, root, "obs.Registry.WritePrometheus", func() {
			for i := 0; i < scrapes; i++ {
				must(in.node.srv.Obs().WritePrometheus(io.Discard))
			}
		})
		r.layer("obs.scrape_ms", ms(d)/scrapes, scrapes)
	}
	return perBatchUs
}

// replayGateway calls the gateway's ingest directly, with no HTTP hop in
// front of it, and times the partition function alone.
func replayGateway(r *run, root span, in replayInput) {
	ctx := context.Background()
	d := step(r, root, "gateway.Gateway.Ingest", func() {
		for _, b := range in.batches {
			res, err := in.cluster.gw.Ingest(ctx, b)
			r.check(err == nil && res.Rejected == 0, "gateway ingest: %v, %d rejected", err, res.Rejected)
		}
	})
	r.layer("gateway.ingest_us_per_batch", us(d)/float64(len(in.batches)), len(in.batches))
	addrs := make([]string, len(in.cluster.nodes))
	for i, n := range in.cluster.nodes {
		addrs[i] = n.url
	}
	keys := 0
	d = step(r, root, "gateway.Owner", func() {
		for _, b := range in.batches {
			for _, e := range b {
				gateway.Owner(e.SQL, addrs)
				keys++
			}
		}
	})
	r.layer("gateway.rendezvous_ns_per_key", float64(d)/float64(keys), keys)
}
