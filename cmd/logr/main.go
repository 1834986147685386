// Command logr compresses SQL query logs and answers workload-analytics
// questions from the compressed summary.
//
// Usage:
//
//	logr gen -dataset pocketdata -total 50000 -out log.sql     generate a synthetic log
//	logr stats -in log.sql                                     Table-1-style statistics
//	logr compress -in log.sql -k 8                             compress and report fidelity
//	logr compress -in log.sql -delta more.sql -incremental     append + incremental recompression
//	logr compress -in log.sql -k 8 -segment 5000 -window 4     seal 5k-query segments, summarize the last 4
//	logr inspect -in log.sql -k 8                              visualize the summary
//	logr estimate -in log.sql -k 8 -q "SELECT * FROM t WHERE x = ?"
//	logr advise -in log.sql -k 8                               index / view suggestions
//	logr drift -in log.sql -segment 5000 -lookback 4           sliding-window drift over segments
//
// Input files are raw access logs (one SQL statement per line) or compact
// "count<TAB>sql" files; the format is auto-detected per line.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"logr"
	"logr/internal/experiments"
	"logr/internal/server"
	"logr/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	// every command runs under a signal-aware context: the first
	// SIGINT/SIGTERM cancels it so commands abort at their next checkpoint
	// (removing partial output) and the daemon drains gracefully; a second
	// signal restores default delivery and kills the process
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "gen":
		err = runGen(ctx, args)
	case "stats":
		err = runStats(args)
	case "compress":
		err = runCompress(ctx, args)
	case "inspect":
		err = runInspect(args)
	case "estimate":
		err = runEstimate(args)
	case "advise":
		err = runAdvise(args)
	case "drift":
		err = runDrift(ctx, args)
	case "serve":
		err = runServe(ctx, args)
	case "remote":
		err = runRemote(ctx, args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "logr: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "logr:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: logr <command> [flags]

commands:
  gen       generate a synthetic workload (pocketdata | usbank)
  stats     print Table-1-style statistics for a log
  compress  compress a log and report Error/Verbosity; with -delta [-incremental],
            append a second log and recompress (incrementally or from scratch);
            with -segment N [-window W], seal N-query segments and compress
            the last W of them (CompressRange)
  inspect   visualize the compressed summary
  estimate  estimate a pattern's frequency from the summary
  advise    suggest indexes and materialized views
  drift     score a window of queries against a baseline log; with -in and
            -segment, slide a per-segment window over one log instead
  serve     run the logrd daemon over a durable data directory (same flags
            as the logrd binary: -dir, -addr, -segment, -k, -sync, ...)
  remote    talk to a running daemon or gateway: logr remote -addr URL <verb>
            (health | stats | ingest | estimate | count | seal | segments |
             drift | compact | drop | summary); a comma-separated -addr
            runs a gateway over that shard list in-process

run "logr <command> -h" for command flags`)
}

func runServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	cfg, err := server.ParseFlags(fs, args)
	if err != nil {
		return err
	}
	return server.Run(ctx, cfg)
}

func loadWorkload(path string, parallelism, segment int) (*logr.Workload, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// compact reader accepts plain lines too
	w, err := logr.LoadCompactWithOptions(f, logr.Options{Parallelism: parallelism, SegmentThreshold: segment})
	if err != nil {
		return nil, err
	}
	if segment > 0 {
		// seal the remainder so the whole log is addressable as segments
		w.Seal()
	}
	return w, nil
}

func runGen(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	dataset := fs.String("dataset", "pocketdata", "pocketdata or usbank")
	total := fs.Int("total", 50000, "total queries including duplicates")
	distinct := fs.Int("distinct", 0, "distinct query target (0 = dataset default)")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "", "output file (default stdout)")
	compact := fs.Bool("compact", true, "write count<TAB>sql lines instead of raw repeats")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var entries []workload.LogEntry
	switch *dataset {
	case "pocketdata":
		d := *distinct
		if d == 0 {
			d = 605
		}
		entries = workload.PocketData(workload.PocketDataConfig{TotalQueries: *total, DistinctTarget: d, Seed: *seed})
	case "usbank":
		d := *distinct
		if d == 0 {
			d = 1712
		}
		entries = workload.USBank(workload.USBankConfig{TotalQueries: *total, DistinctTarget: d, Seed: *seed})
	default:
		return fmt.Errorf("unknown dataset %q", *dataset)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	write := func(w *os.File) error {
		// the ctx-checking writer makes an interrupt abort mid-stream
		cw := &ctxWriter{ctx: ctx, w: w}
		if *compact {
			return workload.WriteCompact(cw, entries)
		}
		return workload.WritePlain(cw, entries)
	}
	if *out == "" {
		return write(os.Stdout)
	}
	// write to a temp file and rename into place: an interrupted or failed
	// run leaves no torn output under the requested name
	tmp := *out + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := ctx.Err(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, *out); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// ctxWriter aborts a long write loop as soon as its context is canceled.
type ctxWriter struct {
	ctx context.Context
	w   *os.File
}

func (c *ctxWriter) Write(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.w.Write(p)
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	in := fs.String("in", "", "input log file")
	par := fs.Int("p", 0, "parallelism: worker count (0 = all cores, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("stats: -in is required")
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	// compact reader accepts plain lines too
	entries, err := workload.ReadCompact(f)
	if err != nil {
		return err
	}
	opts := workload.EncodeOptions{Parallelism: *par}
	s := workload.Encode(entries, opts).Stats
	fmt.Printf("queries:                %d\n", s.Queries)
	fmt.Printf("distinct:               %d\n", s.DistinctQueries)
	fmt.Printf("distinct (w/o const):   %d\n", s.DistinctNoConst)
	fmt.Printf("distinct conjunctive:   %d\n", s.DistinctConjunctive)
	fmt.Printf("distinct rewritable:    %d\n", s.DistinctRewritable)
	fmt.Printf("max multiplicity:       %d\n", s.MaxMultiplicity)
	fmt.Printf("features:               %d\n", experiments.DistinctFeatures(entries, opts))
	fmt.Printf("features (w/o const):   %d\n", s.FeaturesNoConst)
	fmt.Printf("avg features/query:     %.2f\n", s.AvgFeaturesPerQuery)
	fmt.Printf("stored procedures:      %d (skipped)\n", s.StoredProcedures)
	fmt.Printf("unparseable:            %d (skipped)\n", s.Unparseable)
	return nil
}

// parseCompress parses the flags shared by every compressing subcommand —
// plus any extras the caller registers — and loads the workload. The
// returned options are what the caller should pass to Compress/Recompress.
// extra may return a validation func, run after parsing but before the
// (potentially expensive) workload load.
func parseCompress(name string, args []string, extra func(fs *flag.FlagSet) func() error) (*logr.Workload, logr.CompressOptions, error) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	in := fs.String("in", "", "input log file")
	k := fs.Int("k", 0, "clusters (0 = auto sweep)")
	method := fs.String("method", "kmeans", "kmeans | hierarchical (average linkage, Hamming distance)")
	target := fs.Float64("target", 1.0, "target error for the auto sweep (nats)")
	seed := fs.Int64("seed", 1, "clustering seed")
	par := fs.Int("p", 0, "parallelism: worker count (0 = all cores, 1 = serial)")
	segment := fs.Int("segment", 0, "seal the ingest into segments of at least this many queries (0 = one unsegmented workload)")
	var validate func() error
	if extra != nil {
		validate = extra(fs)
	}
	if err := fs.Parse(args); err != nil {
		return nil, logr.CompressOptions{}, err
	}
	if *in == "" {
		return nil, logr.CompressOptions{}, fmt.Errorf("%s: -in is required", name)
	}
	if validate != nil {
		if err := validate(); err != nil {
			return nil, logr.CompressOptions{}, err
		}
	}
	w, err := loadWorkload(*in, *par, *segment)
	if err != nil {
		return nil, logr.CompressOptions{}, err
	}
	return w, logr.CompressOptions{
		Clusters: *k, Method: *method,
		TargetError: *target, Seed: *seed, Parallelism: *par,
	}, nil
}

func compressFrom(args []string, name string, extra func(fs *flag.FlagSet) func() error) (*logr.Workload, *logr.Summary, error) {
	w, opts, err := parseCompress(name, args, extra)
	if err != nil {
		return nil, nil, err
	}
	s, err := w.Compress(opts)
	return w, s, err
}

func runCompress(ctx context.Context, args []string) error {
	var delta *string
	var incremental *bool
	var maxGrowth *float64
	var window *int
	w, opts, err := parseCompress("compress", args, func(fs *flag.FlagSet) func() error {
		delta = fs.String("delta", "", "append this log after compressing and recompress")
		incremental = fs.Bool("incremental", false, "recompress the -delta append incrementally (the delta placed into the prior partition, no clustering)")
		maxGrowth = fs.Float64("maxgrowth", 0, "allowed relative Error growth before incremental recompression falls back to a full re-cluster (0 = default 0.10)")
		window = fs.Int("window", 0, "with -segment: summarize only the last N sealed segments (CompressRange) instead of the whole log")
		return nil
	})
	if err != nil {
		return err
	}
	if segs := w.Segments(); len(segs) > 0 {
		fmt.Printf("segments (%d sealed):\n", len(segs))
		for _, sg := range segs {
			span := fmt.Sprintf("%d", sg.ID)
			if sg.EndID > sg.ID+1 {
				span = fmt.Sprintf("%d..%d", sg.ID, sg.EndID-1)
			}
			fmt.Printf("  [%s]  %7d queries, %5d distinct, universe %d\n", span, sg.Queries, sg.Distinct, sg.Epoch.Universe)
		}
	}
	if *window > 0 {
		from, to, ok := w.SealedRange()
		if !ok {
			return fmt.Errorf("compress: -window needs sealed segments (set -segment)")
		}
		segs := w.Segments()
		width := len(segs)
		if *window < len(segs) {
			from = segs[len(segs)-*window].ID
			width = *window
		}
		start := time.Now()
		s, err := w.CompressRange(from, to, opts)
		if err != nil {
			return err
		}
		fmt.Printf("windowed summary over segments [%d, %d) (%d segments)\n", from, to, width)
		fmt.Printf("  epoch:             universe %d, %d queries\n", s.Epoch().Universe, s.Epoch().TotalQueries)
		fmt.Printf("  clusters:          %d\n", s.Clusters())
		fmt.Printf("  total verbosity:   %d\n", s.TotalVerbosity())
		fmt.Printf("  reproduction err:  %.4f nats\n", s.Error())
		fmt.Printf("  wall time:         %s\n", time.Since(start).Round(time.Millisecond))
		return nil
	}
	start := time.Now()
	s, err := w.Compress(opts)
	if err != nil {
		return err
	}
	report := func(label string, s *logr.Summary, d time.Duration) {
		fmt.Printf("%s\n", label)
		fmt.Printf("  epoch:             universe %d, %d queries\n", s.Epoch().Universe, s.Epoch().TotalQueries)
		fmt.Printf("  clusters:          %d\n", s.Clusters())
		fmt.Printf("  total verbosity:   %d\n", s.TotalVerbosity())
		fmt.Printf("  reproduction err:  %.4f nats\n", s.Error())
		fmt.Printf("  wall time:         %s\n", d.Round(time.Millisecond))
	}
	report("baseline summary", s, time.Since(start))
	if *delta == "" {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	entries, err := loadEntries(*delta)
	if err != nil {
		return err
	}
	if err := w.Append(entries); err != nil {
		return err
	}
	start = time.Now()
	var next *logr.Summary
	if *incremental {
		next, err = w.Recompress(s, logr.RecompressOptions{CompressOptions: opts, MaxErrorGrowth: *maxGrowth})
	} else {
		next, err = w.Compress(opts)
	}
	if err != nil {
		return err
	}
	mode := "full re-cluster"
	if next.Incremental() {
		mode = "incremental merge"
	} else if *incremental {
		mode = "full re-cluster (error-drift fallback)"
	}
	report("after -delta append ("+mode+")", next, time.Since(start))
	return nil
}

// loadEntries reads a raw or compact log file as appendable entries.
func loadEntries(path string) ([]logr.Entry, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	raw, err := workload.ReadCompact(f)
	if err != nil {
		return nil, err
	}
	entries := make([]logr.Entry, len(raw))
	for i, e := range raw {
		entries[i] = logr.Entry{SQL: e.SQL, Count: e.Count}
	}
	return entries, nil
}

func runInspect(args []string) error {
	var asHTML *bool
	_, s, err := compressFrom(args, "inspect", func(fs *flag.FlagSet) func() error {
		asHTML = fs.Bool("html", false, "emit an HTML document instead of text")
		return nil
	})
	if err != nil {
		return err
	}
	if *asHTML {
		fmt.Print(s.VisualizeHTML())
		return nil
	}
	fmt.Print(s.Visualize())
	return nil
}

func runEstimate(args []string) error {
	var q *string
	w, s, err := compressFrom(args, "estimate", func(fs *flag.FlagSet) func() error {
		q = fs.String("q", "", "pattern query, e.g. \"SELECT * FROM t WHERE x = ?\"")
		return func() error {
			if *q == "" {
				return fmt.Errorf("estimate: -q is required")
			}
			return nil
		}
	})
	if err != nil {
		return err
	}
	freq, err := s.EstimateFrequency(*q)
	if err != nil {
		return err
	}
	count, _ := s.EstimateCount(*q)
	truth, err := w.Count(*q)
	if err != nil {
		fmt.Printf("estimated frequency: %.4f (%.0f queries); pattern has unseen features, true count 0\n", freq, count)
		return nil
	}
	fmt.Printf("estimated frequency: %.4f (%.0f queries)\n", freq, count)
	fmt.Printf("true count:          %d queries\n", truth)
	return nil
}

func runDrift(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("drift", flag.ExitOnError)
	baseline := fs.String("baseline", "", "baseline log file")
	window := fs.String("window", "", "window log file to score")
	in := fs.String("in", "", "single log file for segmented sliding-window mode (with -segment)")
	segment := fs.Int("segment", 0, "segment size for sliding-window mode (queries per segment)")
	lookback := fs.Int("lookback", 4, "sliding-window mode: how many preceding segments form the baseline")
	k := fs.Int("k", 8, "baseline clusters")
	seed := fs.Int64("seed", 1, "clustering seed")
	par := fs.Int("p", 0, "parallelism: worker count (0 = all cores, 1 = serial)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *in != "" || *segment > 0 {
		if *in == "" || *segment <= 0 {
			return fmt.Errorf("drift: sliding-window mode needs both -in and -segment")
		}
		return runDriftSliding(ctx, *in, *segment, *lookback, *k, *seed, *par)
	}
	if *baseline == "" || *window == "" {
		return fmt.Errorf("drift: -baseline and -window are required (or -in with -segment)")
	}
	w, err := loadWorkload(*baseline, *par, 0)
	if err != nil {
		return err
	}
	s, err := w.Compress(logr.CompressOptions{Clusters: *k, Seed: *seed, Parallelism: *par})
	if err != nil {
		return err
	}
	win, err := loadEntries(*window)
	if err != nil {
		return err
	}
	rep := s.CheckDrift(win)
	fmt.Printf("excess surprisal: %.2f nats/query\n", rep.Score)
	fmt.Printf("novelty rate:     %.2f%%\n", rep.NoveltyRate*100)
	fmt.Printf("alert:            %v\n", rep.Alert)
	return nil
}

// runDriftSliding segments one log and scores each segment against the
// summary of the preceding lookback segments — the windowed-analytics drift
// monitor. Each row compresses its baseline range and scores the newest
// segment's already-encoded queries against it.
func runDriftSliding(ctx context.Context, path string, segment, lookback, k int, seed int64, par int) error {
	if lookback <= 0 {
		lookback = 1
	}
	w, err := loadWorkload(path, par, segment)
	if err != nil {
		return err
	}
	segs := w.Segments()
	if len(segs) < 2 {
		return fmt.Errorf("drift: only %d segments; lower -segment", len(segs))
	}
	opts := logr.CompressOptions{Clusters: k, Seed: seed, Parallelism: par}
	fmt.Printf("sliding drift over %d segments (baseline = previous %d segments, K=%d)\n", len(segs), lookback, k)
	fmt.Println("segment   queries   score(nats/q)   novelty   alert")
	for i := 1; i < len(segs); i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		lo := i - lookback
		if lo < 0 {
			lo = 0
		}
		rep, err := w.DriftBetween(segs[lo].ID, segs[i].ID, segs[i].ID, segs[i].EndID, opts)
		if err != nil {
			return err
		}
		fmt.Printf("%7d   %7d   %13.2f   %6.1f%%   %v\n",
			segs[i].ID, segs[i].Queries, rep.Score, rep.NoveltyRate*100, rep.Alert)
	}
	return nil
}

func runAdvise(args []string) error {
	_, s, err := compressFrom(args, "advise", nil)
	if err != nil {
		return err
	}
	fmt.Println("index suggestions (predicate frequency):")
	for i, sg := range s.SuggestIndexes(0.05) {
		if i >= 10 {
			break
		}
		fmt.Printf("  %5.1f%%  %-16s %s\n", sg.Frequency*100, sg.Table, sg.Predicate)
	}
	fmt.Println("materialized-view candidates (table co-occurrence):")
	for i, v := range s.SuggestViews(0.05) {
		if i >= 10 {
			break
		}
		fmt.Printf("  %5.1f%%  %v\n", v.Frequency*100, v.Tables)
	}
	return nil
}
