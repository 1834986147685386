package main

// The metric catalog: every name the benchmark reports, with its unit and
// the direction that is better. BENCHMARK.json at the root of the repo
// lists the same names (a test compares the two) and adds, per end-to-end
// metric, the bound by which its median may worsen before a change counts
// as a regression. bench/README.md defines each metric.

type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one of them, each read the way that workload's caller
// meets it (README, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"error_nats", "nats/query", "lower"},
	{"estimate_rel_err", "ratio", "lower"},
	{"ingest_qps", "1/s", "higher"},
	{"ack_p50_ms", "ms", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"cpu_s_per_mquery", "s/Mquery", "lower"},
}

// perLayer are the metrics of single layers, layer = module name. They
// come from the traced run and have no bound. A layer a workload does not
// use reports 0.
var perLayer = []metricDef{
	{"sqlparser.parse_us_per_stmt", "us", "lower"},
	{"sqlparser.stmts", "count", "lower"},
	{"sqlparser.fail_frac", "ratio", "lower"},
	{"regularize.us_per_stmt", "us", "lower"},
	{"regularize.blocks_per_stmt", "ratio", "lower"},
	{"feature.extract_us_per_stmt", "us", "lower"},
	{"feature.codebook_size", "count", "lower"},
	{"workload.addbatch_us_per_query", "us", "lower"},
	{"workload.dedup_hit_frac", "ratio", "higher"},
	{"workload.distinct_raw", "count", "lower"},
	{"workload.result_ms", "ms", "lower"},
	{"workload.state_bytes_per_distinct", "B", "lower"},
	{"workload.restore_ms", "ms", "lower"},
	{"workload.encode_qps", "1/s", "higher"},
	{"bitvec.andcount_ns_per_vec", "ns", "lower"},
	{"cluster.kmeans_ms_k30", "ms", "lower"},
	{"cluster.hier_ms", "ms", "lower"},
	{"maxent.fit_ms", "ms", "lower"},
	{"maxent.pattern_marginal_us", "us", "lower"},
	{"core.compress_s", "s", "lower"},
	{"core.estimate_p50_us", "us", "lower"},
	{"core.count_p50_us", "us", "lower"},
	{"core.compress_ms_k8", "ms", "lower"},
	{"core.compress_ms_k30", "ms", "lower"},
	{"core.sweep_ms", "ms", "lower"},
	{"core.verbosity_k30", "count", "lower"},
	{"core.save_ms", "ms", "lower"},
	{"core.summary_bytes", "B", "lower"},
	{"core.summary_bytes_per_query", "B/query", "lower"},
	{"core.recompress_delta_ms", "ms", "lower"},
	{"core.estimate_us", "us", "lower"},
	{"core.read_summary_ms", "ms", "lower"},
	{"core.merge_ms", "ms", "lower"},
	{"wal.append_commit_us_per_batch", "us", "lower"},
	{"wal.bytes_per_query", "B/query", "lower"},
	{"wal.flushes", "count", "lower"},
	{"wal.fsyncs", "count", "lower"},
	{"wal.fsync_coalesced_frac", "ratio", "higher"},
	{"wal.flush_batch_bytes_p50", "B", "higher"},
	{"wal.fsync_ms_p99", "ms", "lower"},
	{"wal.rotations", "count", "lower"},
	{"wal.scan_mb_per_s", "MB/s", "higher"},
	{"store.append_us_per_query", "us", "lower"},
	{"store.barrier_wait_ms_p99", "ms", "lower"},
	{"store.apply_queue_depth_max", "count", "lower"},
	{"store.ingest_lag_bytes_max", "B", "lower"},
	{"store.seals", "count", "lower"},
	{"store.seal_ms_p50", "ms", "lower"},
	{"store.segments_persisted", "count", "lower"},
	{"store.segment_bytes_per_query", "B/query", "lower"},
	{"store.checkpoints", "count", "lower"},
	{"store.checkpoint_bytes_per_query", "B/query", "lower"},
	{"store.compress_range_ms", "ms", "lower"},
	{"store.recovery_s", "s", "lower"},
	{"store.disk_bytes_per_query", "B/query", "lower"},
	{"store.io_retries", "count", "lower"},
	{"store.degraded_events", "count", "lower"},
	{"server.handler_us_per_batch", "us", "lower"},
	{"server.decode_us_per_batch", "us", "lower"},
	{"server.http_overhead_us_per_batch", "us", "lower"},
	{"server.estimate_cache_hit_frac", "ratio", "higher"},
	{"server.estimate_hit_us", "us", "lower"},
	{"server.estimate_miss_us", "us", "lower"},
	{"server.ack_p99_ms", "ms", "lower"},
	{"server.estimate_p50_ms", "ms", "lower"},
	{"server.estimate_p99_ms", "ms", "lower"},
	{"server.count_p50_ms", "ms", "lower"},
	{"server.backpressure_429", "count", "lower"},
	{"server.degraded_503", "count", "lower"},
	{"client.marshal_us_per_batch", "us", "lower"},
	{"gateway.ingest_us_per_batch", "us", "lower"},
	{"gateway.shard_call_ms_p50", "ms", "lower"},
	{"gateway.shard_call_ms_p99", "ms", "lower"},
	{"gateway.fanout_self_ms", "ms", "lower"},
	{"gateway.rendezvous_ns_per_key", "ns", "lower"},
	{"gateway.shard_skew", "ratio", "lower"},
	{"gateway.merge_ms_p50", "ms", "lower"},
	{"gateway.epoch_cache_hit_frac", "ratio", "higher"},
	{"gateway.hedge_fired", "count", "lower"},
	{"gateway.hedge_wasted_frac", "ratio", "lower"},
	{"gateway.spilled", "count", "lower"},
	{"gateway.rejected", "count", "lower"},
	{"obs.scrape_ms", "ms", "lower"},
	{"bench.generator_lag_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_frac", "ratio", "lower"},
	{"bench.layers_sum_over_e2e", "ratio", "higher"},
	{"bench.failed_frac", "ratio", "lower"},
}

// workloadDef names a workload and records why it exists.
type workloadDef struct {
	name, why string
	run       func(*run)
}

var workloads = []workloadDef{
	{"compress_batch", "the paper's batch experiment: parser, regularizer, features, clustering and summary do all the work, WAL, store, server and gateway none", compressBatch},
	{"ingest_repeat", "closed-loop HTTP ingest of 605 repeating statements: the encoder only dedups, so JSON decode, WAL group commit, apply, seal-time k-means and persistence dominate", ingestRepeat},
	{"ingest_novel", "the same driver with every statement unique: parse, regularize and codebook admission dominate and the dedup map and checkpoints grow without bound", ingestNovel},
	{"serve_mixed", "open-loop reads beside writes on a preloaded store: every write invalidates the cached summary, so estimates pay Recompress and counts the apply barrier", serveMixed},
	{"cluster_scatter", "a gateway over 3 durable shards: rendezvous partitioning, fan-out, hedging and the summary merge algebra do the work; read as overhead per request", clusterScatter},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("bench: metric " + name + " is not in the catalog")
}
