package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"logr"
	"logr/client"
	"logr/internal/gateway"
)

// Sizes of the inputs. They are constants of the benchmark: both sides of
// a comparison run the same ones.
const (
	// batchQueries is the size of the batch-compression log. The paper's
	// bank log has 1,244,243 queries; its cost to this system is set by
	// its distinct raw statements and its 1,712 shapes, so the log keeps
	// all the shapes and about a quarter of the statements, which lets
	// four iterations fit in a run.
	batchQueries = 300_000
	// batchDistinct is how many of them are distinct raw strings: one in
	// fifteen, the bank log's ratio.
	batchDistinct = 20_000
	// batchProbes and serveProbes size the probe sets: enough patterns that
	// estimate_rel_err, a mean over them, does not move with the seed's draw.
	batchProbes = 2000
	serveProbes = 2000
	// preloadQueries is what serve_mixed holds, sealed, before its window.
	preloadQueries = 250_000
	// shards is the size of the cluster behind the gateway.
	shards = 3
)

// Open-loop rates, per second.
var (
	serveRates   = [numOpKinds]int{opIngest: 10, opEstimate: 200, opCount: 100}
	clusterRates = [numOpKinds]int{opIngest: 5, opEstimate: 200, opCount: 100}
)

// --- compress_batch ---------------------------------------------------------

type batchInput struct {
	entries []logr.Entry
	tpls    []template
	probes  []string
}

func compressBatch(r *run) {
	in := medianSetup(r, func() batchInput {
		tpls := bankTemplates(r.n(bankShapes))
		entries := bankLog(r.seed, tpls, r.n(batchQueries), r.n(batchDistinct))
		return batchInput{entries, tpls, probeSet(r.seed, tpls, r.n(batchProbes))}
	}, func(batchInput) {})
	file := filepath.Join(r.dir("summary"), "summary.lgrs")
	total := r.n(batchQueries)

	var iterS, encodeS, estMs, cntMs []float64
	var firstErr, firstRel float64
	var diskBytes int64
	cpu0, start := cpuSeconds(), time.Now()
	iters := 0
	for ; iters == 0 || time.Since(start) < r.window; iters++ {
		// every iteration starts from a collected heap, as a fresh process
		// would: where the last one's garbage is collected is otherwise
		// luck, and peak_rss_mb and the first timings with it
		runtime.GC()
		it := r.tr.begin("compress_batch.iteration", span{})
		t0 := time.Now()

		sp := r.tr.begin("logr.FromEntries", it)
		w := logr.FromEntries(in.entries)
		queries := w.Queries()
		r.tr.end(sp)
		encodeS = append(encodeS, time.Since(t0).Seconds())
		r.check(queries == total, "encoded %d of %d queries", queries, total)

		var k30 *logr.Summary
		for _, c := range []struct {
			name string
			opts logr.CompressOptions
		}{
			{"logr.Compress.kmeans30", batchSummary},
			{"logr.Compress.sweep", logr.CompressOptions{TargetError: 0.05, MaxClusters: 30, Seed: 1}},
			{"logr.Compress.hierarchical8", logr.CompressOptions{Clusters: 8, Method: "hierarchical", Seed: 1}},
		} {
			sp := r.tr.begin(c.name, it)
			s, err := w.Compress(c.opts)
			r.tr.end(sp)
			r.check(err == nil && finite(s.Error()), "%s: %v", c.name, err)
			if k30 == nil {
				k30 = s
			}
		}
		if k30 == nil {
			continue
		}

		sp = r.tr.begin("logr.Summary.Save", it)
		n, err := saveFile(k30, file)
		r.tr.end(sp)
		r.check(err == nil, "save: %v", err)
		diskBytes = n

		sp = r.tr.begin("logr.ReadSummary", it)
		back, err := readFile(file)
		r.tr.end(sp)
		r.check(err == nil && sameArtifact(k30, back), "summary changed across Save and ReadSummary: %v", err)
		if err != nil {
			continue
		}

		sp = r.tr.begin("probes", it)
		rel := relativeError(r, in.probes, func(q string) (float64, error) {
			t0 := time.Now()
			est, err := back.EstimateCount(q)
			estMs = append(estMs, float64(time.Since(t0))/1e6)
			want, _ := k30.EstimateCount(q)
			r.check(est == want, "probe %q: restored summary estimates %v, built one %v", q, est, want)
			return est, err
		}, func(q string) (float64, error) {
			t0 := time.Now()
			n, err := w.Count(q)
			cntMs = append(cntMs, float64(time.Since(t0))/1e6)
			return float64(n), err
		})
		r.tr.end(sp)

		iterS = append(iterS, time.Since(t0).Seconds())
		r.tr.end(it)
		if iters == 0 {
			firstErr, firstRel = k30.Error(), rel
		}
		r.check(k30.Error() == firstErr && rel == firstRel, "error %v, relative error %v differ from the first iteration's %v, %v", k30.Error(), rel, firstErr, firstRel)
	}
	elapsed, cpu := time.Since(start), cpuSeconds()-cpu0

	r.pace = float64(iters) / elapsed.Seconds()
	// queries through the whole pipeline, entries to verified summary, per
	// second; the caller's one write is FromEntries, acknowledged when it
	// returns
	r.set("ingest_qps", float64(total)/median(iterS), len(iterS))
	r.set("ack_p50_ms", median(encodeS)*1e3, len(encodeS))
	w := logr.FromEntries(in.entries)
	scoreSeeds(r, w, batchSummary, in.probes, w.Count)
	r.layer("core.compress_s", median(iterS), len(iterS))
	r.layer("core.estimate_p50_us", percentile(sortedCopy(estMs), 50)*1e3, len(estMs))
	r.layer("core.count_p50_us", percentile(sortedCopy(cntMs), 50)*1e3, len(cntMs))
	r.set("cpu_s_per_mquery", cpu/(float64(iters*total)/1e6), iters)
	r.layer("core.summary_bytes_per_query", float64(diskBytes)/float64(total), 1)
	if r.tr != nil {
		replayLayers(r, replayInput{batches: chunk(in.entries), probes: in.probes})
	}
}

// setReads reports the read latencies of a serving workload.
func setReads(r *run, estMs, cntMs []float64) {
	est := sortedCopy(estMs)
	r.layer("server.estimate_p50_ms", percentile(est, 50), len(est))
	r.layer("server.estimate_p99_ms", percentile(est, 99), len(est))
	r.layer("server.count_p50_ms", percentile(sortedCopy(cntMs), 50), len(cntMs))
}

func saveFile(s *logr.Summary, path string) (int64, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := s.Save(f); err != nil {
		f.Close()
		return 0, err
	}
	if err := f.Close(); err != nil {
		return 0, err
	}
	info, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return info.Size(), nil
}

func readFile(path string) (*logr.Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return logr.ReadSummary(f)
}

// sameArtifact reports whether a restored summary serializes to the bytes
// of the one it was saved from. (Error() itself does not travel with the
// artifact: a restored summary reports NaN until WithError re-attaches it.)
func sameArtifact(built, restored *logr.Summary) bool {
	var a, b bytes.Buffer
	if built.Save(&a) != nil || restored.Save(&b) != nil {
		return false
	}
	return bytes.Equal(a.Bytes(), b.Bytes()) && restored.WithError(built.Error()).Error() == built.Error()
}

// chunk cuts entries into ingest-sized batches.
func chunk(entries []logr.Entry) [][]logr.Entry {
	var out [][]logr.Entry
	for len(entries) > 0 {
		n := min(len(entries), batchEntries)
		out = append(out, entries[:n])
		entries = entries[n:]
	}
	return out
}

// --- ingest_repeat, ingest_novel ----------------------------------------------

func ingestRepeat(r *run) { ingest(r, false) }
func ingestNovel(r *run)  { ingest(r, true) }

type servingState struct {
	n      *node
	tpls   []template
	probes []string
	// pre-generated ingest batches of an open-loop window
	batches [][]logr.Entry
}

func ingest(r *run, novel bool) {
	st := medianSetup(r, func() servingState {
		var tpls []template
		if novel {
			tpls = bankTemplates(r.n(bankShapes))
		} else {
			tpls = appLog()
		}
		return servingState{n: startNode(r, r.dir("data")), tpls: tpls, probes: probeSet(r.seed, tpls, serveProbes)}
	}, func(st servingState) { st.n.stop() })
	defer st.n.stop()

	var cl [clients]*client.Client
	send := make([]ingestFunc, clients)
	next := laneBatches(r.seed, st.tpls, novel)
	for i := range cl {
		cl[i] = newClient(r, st.n.url)
		send[i] = clientIngest(r, cl[i])
	}

	warm := closedLoop(r, r.warmup(), send, next)
	tw := beginTracedWindow(r, st.n.url, st.n)
	cpu0 := cpuSeconds()
	win := closedLoop(r, r.window, send, next)
	cpu := cpuSeconds() - cpu0
	tw.end()

	acked := warm.acked + win.acked
	r.pace = float64(win.acked) / win.elapsed.Seconds()
	r.set("ingest_qps", r.pace, len(win.ackMs))
	r.setTiming("ack_p50_ms", win.ackMs)
	r.set("cpu_s_per_mquery", cpu/(float64(win.acked)/1e6), 1)
	r.check(int64(max(warm.maxTotal, win.maxTotal)) == acked,
		"last acknowledged total %d, acknowledged %d", max(warm.maxTotal, win.maxTotal), acked)

	settle(st.n)
	estMs, cntMs := probeReads(r, cl[:], st.probes, r.epilogue())
	setReads(r, estMs, cntMs)
	scoreSummary(r, st.n.w, st.probes)
	recoverNode(r, st.n, acked)

	if r.tr != nil {
		tw.layers(r, win.acked, win.ackMs)
		in := replayInput{probes: st.probes, durable: true, node: st.n}
		for i := 0; i < r.n(replayBatches); i++ {
			in.batches = append(in.batches, append([]logr.Entry(nil), next(i%clients)...))
		}
		replayLayers(r, in)
		missLatency(r, st.n, cl[0], st.probes, in.batches)
	}
}

// laneBatches returns the batch source of the closed-loop clients: lane i
// gets batches i, i+clients, … of the repeating stream, or its own lane of
// the novel stream. A lane reuses its buffer: a client has one batch in
// flight.
func laneBatches(seed int64, tpls []template, novel bool) func(lane int) []logr.Entry {
	bufs := make([][]logr.Entry, clients)
	if novel {
		streams := make([]*novelStream, clients)
		for i := range streams {
			streams[i] = newNovelStream(seed, tpls, i, clients)
		}
		return func(lane int) []logr.Entry {
			bufs[lane] = streams[lane].batch(bufs[lane])
			return bufs[lane]
		}
	}
	serial := make([]int64, clients)
	return func(lane int) []logr.Entry {
		bufs[lane] = repeatBatch(tpls, int64(lane)+clients*serial[lane], bufs[lane])
		serial[lane]++
		return bufs[lane]
	}
}

// batchSummary is the summary compress_batch scores and saves.
var batchSummary = logr.CompressOptions{Clusters: 30, Seed: 1}

// kmeansSeeds are the clustering seeds a log's Reproduction Error is read
// over, as their median: k-means settles in a different local optimum per
// seed, and one seed's luck — or a change that shifts it — would otherwise
// move error_nats by a tenth.
var kmeansSeeds = []int64{1, 2, 3}

// scoreSeeds compresses w once per clustering seed and scores each summary
// — its Reproduction Error, and its estimates against count's exact
// answers over the probe set — and reports the medians.
func scoreSeeds(r *run, w *logr.Workload, opts logr.CompressOptions, probes []string, count func(string) (int, error)) {
	var errs, rels []float64
	for _, seed := range kmeansSeeds {
		opts.Seed = seed
		s, err := w.Compress(opts)
		r.check(err == nil && finite(s.Error()), "compress: %v", err)
		if err != nil {
			continue
		}
		errs = append(errs, s.Error())
		rels = append(rels, relativeError(r, probes, s.EstimateCount, func(q string) (float64, error) {
			n, err := count(q)
			return float64(n), err
		}))
	}
	r.set("error_nats", median(errs), len(errs))
	r.set("estimate_rel_err", median(rels), len(probes))
}

// timeCompress builds the same summary of w over and over for the length
// of an epilogue, at least three times, and returns it and each build's
// time. Every build must report the same Reproduction Error.
func timeCompress(r *run, w *logr.Workload, opts logr.CompressOptions) (sum *logr.Summary, secs []float64) {
	runtime.GC()
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < r.epilogue(); i++ {
		t0 := time.Now()
		s, err := w.Compress(opts)
		secs = append(secs, time.Since(t0).Seconds())
		r.check(err == nil && finite(s.Error()), "compress: %v", err)
		if err != nil {
			return nil, secs
		}
		if sum == nil {
			sum = s
		}
		r.check(s.Error() == sum.Error(), "identical compressions disagree on error_nats: %v, %v", s.Error(), sum.Error())
	}
	return sum, secs
}

// scoreSummary builds the summary the node serves from the log it now
// holds, over and over for the time it takes, checks that it survives Save
// and ReadSummary, and scores the log's summaries.
func scoreSummary(r *run, w *logr.Workload, probes []string) {
	sum, secs := timeCompress(r, w, servedSummary)
	if sum == nil {
		return
	}
	r.layer("core.compress_s", median(secs), len(secs))
	var buf bytes.Buffer
	r.check(sum.Save(&buf) == nil, "save failed")
	back, err := logr.ReadSummary(bytes.NewReader(buf.Bytes()))
	r.check(err == nil && sameArtifact(sum, back), "summary changed across Save and ReadSummary: %v", err)
	r.layer("core.summary_bytes_per_query", float64(buf.Len())/float64(max(w.Queries(), 1)), 1)
	scoreSeeds(r, w, servedSummary, probes, w.Count)
}

// relativeError is the mean over the probe set of |estimate − exact| ÷
// max(exact, 1), each probe's error counted as at most 1 (a mean, because
// the errors of a summary fall in two heaps — near 0 and near 1 — and the
// median of such a set jumps between seeds; capped, because an estimate
// for a pattern the log holds once can be off by any factor). A pattern
// whose features the log never saw counts 0.
func relativeError(r *run, probes []string, estimate, exact func(string) (float64, error)) float64 {
	sum := 0.0
	for _, q := range probes {
		est, err := estimate(q)
		want, cerr := exact(q)
		var unk *logr.UnknownFeatureError
		if errors.As(cerr, &unk) {
			want, cerr = 0, nil
		}
		r.check(err == nil && cerr == nil && finite(est) && want >= 0, "probe %q: %v %v, %v %v", q, est, err, want, cerr)
		sum += math.Min(math.Abs(est-want)/math.Max(want, 1), 1)
	}
	return sum / float64(len(probes))
}

// recoverNode recovers from a crash image of the node's data directory —
// Sync, then copy the live directory with no Seal and no Close — and
// requires OpenDir to come back with exactly the acknowledged queries. The
// traced run does it three times, each on a fresh copy, and reports the
// median.
func recoverNode(r *run, n *node, acked int64) {
	r.check(int64(n.w.Queries()) == acked, "node holds %d queries, acknowledged %d", n.w.Queries(), acked)
	secs, disk := recoverDir(r, n, "image", acked)
	r.layer("store.recovery_s", median(secs), len(secs))
	r.layer("store.disk_bytes_per_query", float64(disk)/float64(acked), 1)
}

func recoverDir(r *run, n *node, image string, want int64) (secs []float64, disk int64) {
	r.check(n.w.Sync() == nil, "sync failed")
	settle(n)
	disk = dirBytes(n.dir)
	rounds := 1
	if r.tr != nil {
		rounds = 3
	}
	for i := 0; i < rounds; i++ {
		img := r.dir(image)
		must(copyImage(n.dir, img))
		t0 := time.Now()
		w, err := logr.OpenDir(img, storeOptions(nil))
		if err != nil {
			r.check(false, "recovery: %v", err)
			continue
		}
		got := w.Queries()
		secs = append(secs, time.Since(t0).Seconds())
		r.check(int64(got) == want, "recovered %d queries, acknowledged %d", got, want)
		r.check(w.Close() == nil, "closing the recovered store failed")
	}
	return secs, disk
}

// walFile is the name of the WAL inside a data directory.
const walFile = "wal.log"

// copyImage copies a live data directory, the WAL first: should a
// checkpoint rotate the WAL while the copy runs, an older WAL beside a
// newer checkpoint still recovers (the checkpoint is authoritative), the
// reverse would not.
func copyImage(src, dst string) error {
	if data, err := os.ReadFile(filepath.Join(src, walFile)); err == nil {
		if err := os.WriteFile(filepath.Join(dst, walFile), data, 0o644); err != nil {
			return err
		}
	}
	return copyDir(src, dst, walFile)
}

// settle waits until the node's background work (apply queue, seal-time
// summaries, checkpoints) has gone quiet, so that what is measured after
// the window does not share the cores with the window's leftovers, and the
// bytes on disk and the crash image describe the whole acknowledged log.
func settle(n *node) {
	last, calm := int64(-1), 0
	for deadline := time.Now().Add(10 * time.Second); calm < 3 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		now := dirBytes(n.dir)
		if now == last && n.w.IngestLag().QueuedEntries == 0 {
			calm++
		} else {
			calm = 0
		}
		last = now
	}
}

// --- serve_mixed ----------------------------------------------------------------

func serveMixed(r *run) {
	events := schedule(r.seed, r.window, serveRates, serveProbes)
	st := medianSetup(r, func() servingState {
		tpls := bankTemplates(r.n(bankShapes))
		entries := bankLog(r.seed, tpls, r.n(preloadQueries), r.n(preloadQueries)/15)
		st := servingState{n: startNode(r, r.dir("data")), tpls: tpls, probes: probeSet(r.seed, tpls, serveProbes)}
		for _, b := range chunk(entries) {
			must(st.n.w.Append(b))
		}
		r.check(st.n.w.Queries() == r.n(preloadQueries), "preloaded %d of %d queries", st.n.w.Queries(), r.n(preloadQueries))
		stream := newNovelStream(r.seed, tpls, 0, 1)
		st.batches = append(st.batches, stream.batch(nil)) // the warm-up write
		for _, ev := range events {
			if ev.kind == opIngest {
				st.batches = append(st.batches, stream.batch(nil))
			}
		}
		return st
	}, func(st servingState) { st.n.stop() })
	defer st.n.stop()

	c := newClient(r, st.n.url)
	send := clientIngest(r, c)
	// warm up: one write, then the reads that build the cached summary
	_, err := send(context.Background(), st.batches[0])
	r.check(err == nil, "warm-up write: %v", err)
	acked := int64(r.n(preloadQueries) + batchEntries)
	probeReads(r, []*client.Client{c}, st.probes, r.warmup()/10)

	var nextBatch atomic.Int64
	nextBatch.Store(1)
	tw := beginTracedWindow(r, st.n.url, st.n)
	cpu0 := cpuSeconds()
	res := openLoop(r, events, func(ev event) (int64, int, error) {
		ctx := context.Background()
		switch ev.kind {
		case opIngest:
			b := st.batches[nextBatch.Add(1)-1]
			total, err := send(ctx, b)
			return int64(len(b)), total, err
		default:
			return 0, 0, read(ctx, c, ev.kind, st.probes[ev.probe%len(st.probes)])
		}
	})
	cpu := cpuSeconds() - cpu0
	tw.end()
	acked += res.acked

	r.pace = 1e3 / math.Max(percentile(sortedCopy(res.latMs[opIngest]), 50), 1e-6)
	r.set("ingest_qps", float64(res.acked)/res.elapsed.Seconds(), len(res.latMs[opIngest]))
	r.setTiming("ack_p50_ms", res.latMs[opIngest])
	setReads(r, res.latMs[opEstimate], res.latMs[opCount])
	r.set("cpu_s_per_mquery", cpu/(float64(res.acked)/1e6), 1)
	r.check(int64(res.maxTotal) == acked, "last acknowledged total %d, acknowledged %d", res.maxTotal, acked)

	settle(st.n)
	scoreSummary(r, st.n.w, st.probes)
	recoverNode(r, st.n, acked)

	if r.tr != nil {
		tw.layers(r, res.acked, res.latMs[opIngest])
		r.layer("bench.generator_lag_ms_p99", percentile(sortedCopy(res.lateMs), 99), len(res.lateMs))
		in := replayInput{probes: st.probes, durable: true, node: st.n}
		in.batches = st.batches[:min(len(st.batches), r.n(replayBatches))]
		replayLayers(r, in)
		missLatency(r, st.n, c, st.probes, in.batches)
	}
}

// --- cluster_scatter --------------------------------------------------------------

type clusterState struct {
	nodes  []*node
	gw     *gateway.Gateway
	front  *listener
	tpls   []template
	probes []string
}

func (cs clusterState) stop() {
	cs.front.close()
	cs.gw.Close()
	for _, n := range cs.nodes {
		n.stop()
	}
}

func clusterScatter(r *run) {
	cs := medianSetup(r, func() clusterState {
		cs := clusterState{tpls: appLog()}
		cs.probes = probeSet(r.seed, cs.tpls, serveProbes)
		opts := gateway.Options{}
		for i := 0; i < shards; i++ {
			n := startNode(r, r.dir("shard"+string(rune('0'+i))))
			cs.nodes = append(cs.nodes, n)
			opts.Shards = append(opts.Shards, n.url)
		}
		if r.tr != nil {
			opts.Transport = &spanTransport{base: client.DefaultTransport, tr: r.tr, name: "gateway.shard_call"}
		}
		gw, err := gateway.New(opts)
		must(err)
		cs.gw = gw
		h := gw.Handler()
		if r.tr != nil {
			h = spanMiddleware(r.tr, "gateway", h)
		}
		cs.front = listen(h)
		return cs
	}, clusterState.stop)
	defer cs.stop()

	var cl [clients]*client.Client
	send := make([]ingestFunc, clients)
	next := laneBatches(r.seed, cs.tpls, false)
	for i := range cl {
		cl[i] = newClient(r, cs.front.url)
		send[i] = clientIngest(r, cl[i])
	}
	// the window splits 3:2 between the write phase and the read phase
	writeFor := r.window * 3 / 5
	events := schedule(r.seed, r.window-writeFor, clusterRates, serveProbes)

	warm := closedLoop(r, r.warmup(), send, next)
	tw := beginTracedWindow(r, cs.front.url, cs.nodes...)
	cpu0 := cpuSeconds()
	writes := closedLoop(r, writeFor, send, next)
	var trickle atomic.Int64
	reads := openLoop(r, events, func(ev event) (int64, int, error) {
		ctx := context.Background()
		switch ev.kind {
		case opIngest:
			b := repeatBatch(cs.tpls, 1<<40+trickle.Add(1), nil)
			total, err := send[0](ctx, b)
			return int64(len(b)), total, err
		default: // estimates through one client, counts through the other
			return 0, 0, read(ctx, cl[ev.kind-opEstimate], ev.kind, cs.probes[ev.probe%len(cs.probes)])
		}
	})
	cpu := cpuSeconds() - cpu0
	tw.end()
	acked := warm.acked + writes.acked + reads.acked

	r.pace = float64(writes.acked) / writes.elapsed.Seconds()
	r.set("ingest_qps", r.pace, len(writes.ackMs))
	r.setTiming("ack_p50_ms", writes.ackMs)
	setReads(r, reads.latMs[opEstimate], reads.latMs[opCount])
	r.set("cpu_s_per_mquery", cpu/(float64(writes.acked+reads.acked)/1e6), 1)
	r.check(int64(max(warm.maxTotal, writes.maxTotal, reads.maxTotal)) == acked,
		"last acknowledged cluster total %d, acknowledged %d", max(warm.maxTotal, writes.maxTotal, reads.maxTotal), acked)

	// the merged summary, built cold: a write first, so that the gateway's
	// epoch cache and every shard's cached summary are stale
	var secs []float64
	var merged *logr.Summary
	ctx := context.Background()
	for _, n := range cs.nodes {
		settle(n)
	}
	for i, start := 0, time.Now(); i < 3 || time.Since(start) < r.epilogue(); i++ {
		b := repeatBatch(cs.tpls, 1<<41+int64(i), nil)
		_, err := cs.gw.Ingest(ctx, b)
		r.request(err, "gateway ingest")
		if err != nil {
			continue
		}
		acked += int64(len(b))
		t0 := time.Now()
		s, missing, err := cs.gw.MergedSummary(ctx)
		secs = append(secs, time.Since(t0).Seconds())
		r.check(err == nil && len(missing) == 0 && finite(s.Error()), "merged summary: %v, missing %v", err, missing)
		if err == nil {
			merged = s
		}
	}
	if merged == nil {
		return
	}
	r.layer("core.compress_s", median(secs), len(secs))
	r.set("error_nats", merged.Error(), 1)
	r.set("estimate_rel_err", relativeError(r, cs.probes, merged.EstimateCount, func(q string) (float64, error) {
		sum := 0.0
		for _, n := range cs.nodes {
			c, err := n.w.Count(q)
			var unk *logr.UnknownFeatureError
			if err != nil && !errors.As(err, &unk) {
				return 0, err
			}
			sum += float64(c)
		}
		return sum, nil
	}), len(cs.probes))

	var total, disk int64
	var recS []float64
	for i, n := range cs.nodes {
		q := int64(n.w.Queries())
		total += q
		s, d := recoverDir(r, n, "image"+string(rune('0'+i)), q)
		recS = append(recS, median(s))
		disk += d
	}
	r.check(total == acked && int64(merged.Epoch().TotalQueries) == acked,
		"shards hold %d queries, merged summary covers %d, acknowledged %d", total, merged.Epoch().TotalQueries, acked)
	r.layer("store.recovery_s", median(recS), len(recS))
	r.layer("store.disk_bytes_per_query", float64(disk)/float64(acked), 1)

	if r.tr != nil {
		tw.layers(r, writes.acked+reads.acked, writes.ackMs)
		r.layer("bench.generator_lag_ms_p99", percentile(sortedCopy(reads.lateMs), 99), len(reads.lateMs))
		in := replayInput{probes: cs.probes, durable: true, node: cs.nodes[0], cluster: &cs}
		for i := 0; i < r.n(replayBatches); i++ {
			in.batches = append(in.batches, append([]logr.Entry(nil), next(i%clients)...))
		}
		replayLayers(r, in)
		missLatency(r, cs.nodes[0], newClient(r, cs.nodes[0].url), cs.probes, in.batches)
	}
}
