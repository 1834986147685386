package logr_test

// One benchmark per table/figure of the paper's evaluation. Each benchmark
// regenerates its artifact through internal/experiments and prints the
// same rows/series the paper reports (once, on the first iteration).
//
// The dataset scale defaults to the laptop-friendly Small configuration;
// set LOGR_SCALE=medium or LOGR_SCALE=paper to rerun at larger sizes (the
// paper-scale spectral and Laserlight sweeps are hours-long, as the
// original authors' were).
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// or a single artifact with e.g.:
//
//	go test -bench=BenchmarkFigure2 -benchmem

import (
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"logr"
	"logr/internal/experiments"
	"logr/internal/stats"
	"logr/internal/workload"
)

func benchScale() experiments.Scale {
	switch os.Getenv("LOGR_SCALE") {
	case "medium":
		return experiments.Medium
	case "paper":
		return experiments.Paper
	}
	return experiments.Small
}

var printed sync.Map

func printOnce(key, body string) {
	if _, dup := printed.LoadOrStore(key, true); !dup {
		fmt.Printf("\n%s\n", body)
	}
}

// --- Parallel pipeline benchmarks -----------------------------------------
//
// BenchmarkCompress* measure the sharded encode→cluster→sweep pipeline at
// fixed parallelism levels. Compare P1 vs P4 on a 4+ core machine to see the
// pool's speedup; the compressed output is bit-identical across levels for a
// fixed seed (asserted by TestCompressDeterministicAcrossParallelism).
//
//	go test -run '^$' -bench 'BenchmarkCompress' .

var compressBenchOnce struct {
	sync.Once
	w *logr.Workload
}

func compressBenchWorkload() *logr.Workload {
	compressBenchOnce.Do(func() {
		raw := workload.PocketData(workload.PocketDataConfig{TotalQueries: 50000, DistinctTarget: 605, Seed: 1})
		entries := make([]logr.Entry, len(raw))
		for i, e := range raw {
			entries[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
		}
		compressBenchOnce.w = logr.FromEntries(entries)
		compressBenchOnce.w.Queries() // materialize the snapshot up front
	})
	return compressBenchOnce.w
}

func benchCompress(b *testing.B, opts logr.CompressOptions) {
	w := compressBenchWorkload()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Compress(opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressKMeansP1(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Seed: 1, Parallelism: 1})
}

func BenchmarkCompressKMeansP4(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Seed: 1, Parallelism: 4})
}

func BenchmarkCompressKMeansPAll(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Seed: 1})
}

func BenchmarkCompressSweepP1(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Seed: 1, TargetError: 0.05, MaxClusters: 12, Parallelism: 1})
}

func BenchmarkCompressSweepP4(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Seed: 1, TargetError: 0.05, MaxClusters: 12, Parallelism: 4})
}

func BenchmarkCompressHierarchicalP1(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Method: "hierarchical", Seed: 1, Parallelism: 1})
}

func BenchmarkCompressHierarchicalP4(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Method: "hierarchical", Seed: 1, Parallelism: 4})
}

// --- Binary-kernel benchmarks ----------------------------------------------
//
// BenchmarkCompressBinary* run the default popcount-native clustering path
// through the façade. Their dense float64 counterparts live in
// internal/core's BenchmarkCompressBinaryVsDense, the only place the dense
// oracle can still be selected.

func BenchmarkCompressBinaryKMeans(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Seed: 1})
}

func BenchmarkCompressBinarySweep(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Seed: 1, TargetError: 0.05, MaxClusters: 12})
}

func BenchmarkCompressBinaryHierarchical(b *testing.B) {
	benchCompress(b, logr.CompressOptions{Clusters: 8, Method: "hierarchical", Seed: 1})
}

// --- Incremental recompression benchmarks ---------------------------------
//
// BenchmarkRecompressDelta vs BenchmarkRecompressFull measure a monitoring
// refresh after a 10% append: the delta-only merge path of Recompress
// against a from-scratch Compress of the grown log, at equal Seed. The
// workload (base + appended delta) and the baseline summary are identical
// for both, so the ratio is the refresh speedup.

var recompressBenchOnce struct {
	sync.Once
	w    *logr.Workload
	prev *logr.Summary
	err  error
}

func recompressBenchState(b *testing.B) (*logr.Workload, *logr.Summary) {
	recompressBenchOnce.Do(func() {
		entries := pocketBenchEntries(55000)
		cut := len(entries) * 10 / 11 // base 50k, delta 5k: a 10% append
		w := logr.FromEntries(entries[:cut])
		prev, err := w.Compress(logr.CompressOptions{Clusters: 8, Seed: 1})
		if err != nil {
			recompressBenchOnce.err = err
			return
		}
		w.Append(entries[cut:])
		w.Queries() // materialize the grown snapshot up front
		recompressBenchOnce.w, recompressBenchOnce.prev = w, prev
	})
	if recompressBenchOnce.err != nil {
		b.Fatal(recompressBenchOnce.err)
	}
	return recompressBenchOnce.w, recompressBenchOnce.prev
}

func pocketBenchEntries(total int) []logr.Entry {
	raw := workload.PocketData(workload.PocketDataConfig{TotalQueries: total, DistinctTarget: 605, Seed: 1})
	entries := make([]logr.Entry, len(raw))
	for i, e := range raw {
		entries[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
	}
	return entries
}

func BenchmarkRecompressDelta(b *testing.B) {
	w, prev := recompressBenchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := w.Recompress(prev, logr.RecompressOptions{CompressOptions: logr.CompressOptions{Clusters: 8, Seed: 1}})
		if err != nil {
			b.Fatal(err)
		}
		if !s.Incremental() {
			b.Fatal("10% same-distribution delta fell back to a full re-cluster")
		}
	}
}

// BenchmarkCompressRange* complete the maintenance-strategy table: the same
// 55k-query stream as the Recompress benchmarks, sealed into 10 segments.
// CompressRangeCold alternates two windows, so every call misses the
// store's one-slot range cache and compresses its range's log;
// CompressRangeWarm re-queries one window, the steady state a monitoring
// dashboard sits in between seals (served from the range cache). Compare
// in one table:
//
//	go test -run '^$' -bench 'BenchmarkCompressKMeansPAll|BenchmarkCompressRange|BenchmarkRecompress' .
//
// BenchmarkCompress* and BenchmarkCompressRangeCold cluster their whole
// log, BenchmarkRecompressDelta places only the delta and merges, and
// BenchmarkCompressRangeWarm does neither.

var compressRangeBenchOnce struct {
	sync.Once
	w        *logr.Workload
	from, to int
	err      error
}

func compressRangeBenchState(b *testing.B) (*logr.Workload, int, int) {
	compressRangeBenchOnce.Do(func() {
		entries := pocketBenchEntries(55000)
		w := logr.FromEntries(nil)
		per := (len(entries) + 9) / 10
		for lo := 0; lo < len(entries); lo += per {
			hi := min(lo+per, len(entries))
			w.Append(entries[lo:hi])
			if _, ok := w.Seal(); !ok {
				compressRangeBenchOnce.err = fmt.Errorf("seal failed")
				return
			}
		}
		from, to, _ := w.SealedRange()
		// fill the range cache outside the timing
		if _, err := w.CompressRange(from, to, logr.CompressOptions{Clusters: 8, Seed: 1}); err != nil {
			compressRangeBenchOnce.err = err
			return
		}
		compressRangeBenchOnce.w = w
		compressRangeBenchOnce.from, compressRangeBenchOnce.to = from, to
	})
	if compressRangeBenchOnce.err != nil {
		b.Fatal(compressRangeBenchOnce.err)
	}
	return compressRangeBenchOnce.w, compressRangeBenchOnce.from, compressRangeBenchOnce.to
}

func BenchmarkCompressRangeCold(b *testing.B) {
	w, from, to := compressRangeBenchState(b)
	segs := w.Segments()
	alt := segs[1].ID // second window: drop the oldest segment
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := from
		if i%2 == 1 {
			lo = alt
		}
		if _, err := w.CompressRange(lo, to, logr.CompressOptions{Clusters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCompressRangeWarm(b *testing.B) {
	w, from, to := compressRangeBenchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.CompressRange(from, to, logr.CompressOptions{Clusters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Durable ingest benchmarks --------------------------------------------
//
// BenchmarkAppend vs BenchmarkAppendDurable*: the identical ingest batch
// through the identical encode pipeline, with and without the write-ahead
// log, under each fsync policy. The first append is primed outside the
// timing so every measured iteration replays cached parses — the steady
// state of a long-running ingest — making the delta over BenchmarkAppend
// exactly the durability overhead (record framing + write + fsync policy).
// Complete the maintenance-strategy table with:
//
//	go test -run '^$' -bench 'BenchmarkAppend|BenchmarkRecompress|BenchmarkCompressRange' .

func benchAppendEntries() []logr.Entry { return pocketBenchEntries(5000) }

func reportAppendRate(b *testing.B, entries []logr.Entry) {
	queries := 0
	for _, e := range entries {
		queries += e.Count
	}
	b.ReportMetric(float64(queries)*float64(b.N)/b.Elapsed().Seconds(), "queries/sec")
}

func BenchmarkAppend(b *testing.B) {
	entries := benchAppendEntries()
	w := logr.FromEntries(nil)
	if err := w.Append(entries); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Append(entries); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportAppendRate(b, entries)
}

func benchAppendDurable(b *testing.B, pol logr.SyncPolicy) {
	entries := benchAppendEntries()
	w, err := logr.OpenDir(b.TempDir(), logr.Options{Sync: pol})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(entries); err != nil {
		b.Fatal(err)
	}
	// per-iteration ack latency quantiles alongside the mean ns/op: the
	// group-commit WAL is judged on its tail, not its average
	var h stats.Histogram
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := w.Append(entries); err != nil {
			b.Fatal(err)
		}
		h.RecordDuration(time.Since(t0))
	}
	b.StopTimer()
	reportAppendRate(b, entries)
	b.ReportMetric(float64(h.Quantile(0.50)), "p50-ns")
	b.ReportMetric(float64(h.Quantile(0.99)), "p99-ns")
}

func BenchmarkAppendDurableAlways(b *testing.B)   { benchAppendDurable(b, logr.SyncAlways) }
func BenchmarkAppendDurableInterval(b *testing.B) { benchAppendDurable(b, logr.SyncInterval) }
func BenchmarkAppendDurableOff(b *testing.B)      { benchAppendDurable(b, logr.SyncNever) }

func BenchmarkRecompressFull(b *testing.B) {
	w, _ := recompressBenchState(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Compress(logr.CompressOptions{Clusters: 8, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchEncode(b *testing.B, raw []workload.LogEntry, par int) {
	entries := make([]logr.Entry, len(raw))
	for i, e := range raw {
		entries[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := logr.FromEntriesWithOptions(entries, logr.Options{Parallelism: par})
		w.Queries()
	}
}

func pocketDataEntries() []workload.LogEntry {
	return workload.PocketData(workload.PocketDataConfig{TotalQueries: 20000, DistinctTarget: 605, Seed: 1})
}

func BenchmarkEncodeP1(b *testing.B) { benchEncode(b, pocketDataEntries(), 1) }
func BenchmarkEncodeP4(b *testing.B) { benchEncode(b, pocketDataEntries(), 4) }

// BenchmarkEncodeBank encodes a bank log whose distinct raw statements far
// outnumber its shapes (110 constant bindings per human-written shape, and
// noise), so that every statement is lexed into its fingerprint and hashed
// and every shape parsed once — the work the PocketData log, whose
// statements carry no literals, never reaches. It runs at one worker and on
// all cores.
func BenchmarkEncodeBank(b *testing.B) {
	raw := workload.USBank(workload.USBankConfig{TotalQueries: 300000, ConstantVariants: 110, NoiseEntries: 2000, Seed: 1})
	for _, c := range []struct {
		name string
		par  int
	}{{"p1", 1}, {"all", 0}} {
		b.Run(c.name, func(b *testing.B) { benchEncode(b, raw, c.par) })
	}
}

// --------------------------------------------------------------------------

func BenchmarkTable1(b *testing.B) {
	s := benchScale()
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table1(s)
	}
	printOnce("table1", "Table 1: dataset summary\n"+out)
}

func BenchmarkTable2(b *testing.B) {
	s := benchScale()
	var out string
	for i := 0; i < b.N; i++ {
		out = experiments.Table2(s)
	}
	printOnce("table2", "Table 2: alternative datasets\n"+out)
}

func BenchmarkFigure2a(b *testing.B) { benchFig2(b, "fig2a") }
func BenchmarkFigure2b(b *testing.B) { benchFig2(b, "fig2b") }
func BenchmarkFigure2c(b *testing.B) { benchFig2(b, "fig2c") }

// benchFig2 regenerates the clustering sweep; all three panels come from
// the same run, so the three benchmarks share the printed series.
func benchFig2(b *testing.B, key string) {
	s := benchScale()
	var pts []experiments.Fig2Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Figure2(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig2", experiments.FormatFigure2(pts))
}

func BenchmarkFigure3a(b *testing.B) { benchFig3(b) }
func BenchmarkFigure3b(b *testing.B) { benchFig3(b) }

func benchFig3(b *testing.B) {
	s := benchScale()
	var pts []experiments.Fig3Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Figure3(s, 10000)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig3", experiments.FormatFigure3(pts))
}

func BenchmarkFigure4ab(b *testing.B) { benchFig4(b) }
func BenchmarkFigure4cd(b *testing.B) { benchFig4(b) }
func BenchmarkFigure4ef(b *testing.B) { benchFig4(b) }

func benchFig4(b *testing.B) {
	s := benchScale()
	var r *experiments.Fig4Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure4(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig4", experiments.FormatFigure4(r))
}

func BenchmarkFigure5a(b *testing.B) { benchFig5(b) }
func BenchmarkFigure5b(b *testing.B) { benchFig5(b) }
func BenchmarkFigure5c(b *testing.B) { benchFig5(b) }

func benchFig5(b *testing.B) {
	s := benchScale()
	var pts []experiments.Fig5Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Figure5(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig5", experiments.FormatFigure5(pts))
}

func BenchmarkFigure6a(b *testing.B) { benchFig67(b) }
func BenchmarkFigure6b(b *testing.B) { benchFig67(b) }
func BenchmarkFigure7a(b *testing.B) { benchFig67(b) }
func BenchmarkFigure7b(b *testing.B) { benchFig67(b) }

func benchFig67(b *testing.B) {
	s := benchScale()
	var r *experiments.Fig67Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure67(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig67", experiments.FormatFigure67(r))
}

func BenchmarkFigure8a(b *testing.B) { benchFig8(b) }
func BenchmarkFigure8b(b *testing.B) { benchFig8(b) }

func benchFig8(b *testing.B) {
	s := benchScale()
	var r *experiments.Fig8Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure8(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig8", experiments.FormatFigure8(r))
}

func BenchmarkFigure9a(b *testing.B) { benchFig9(b) }
func BenchmarkFigure9b(b *testing.B) { benchFig9(b) }

func benchFig9(b *testing.B) {
	s := benchScale()
	var r *experiments.Fig9Result
	var err error
	for i := 0; i < b.N; i++ {
		r, err = experiments.Figure9(s)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("fig9", experiments.FormatFigure9(r))
}
