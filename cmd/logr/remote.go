package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"strings"

	"logr/client"
	"logr/internal/gateway"
)

// runRemote drives a running logrd daemon (or logrd-gateway) from the
// command line:
//
//	logr remote -addr http://host:8080 <verb> [flags]
//
// The address can also come from the LOGRD_ADDR environment variable. A
// comma-separated -addr is a shard list: the command serves a gateway
// over it on a loopback port and runs against that, so it places,
// spills, fans out and merges exactly like logrd-gateway.
func runRemote(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("remote", flag.ExitOnError)
	defAddr := os.Getenv("LOGRD_ADDR")
	if defAddr == "" {
		defAddr = "http://localhost:8080"
	}
	addr := fs.String("addr", defAddr, "daemon or gateway base URL, or a comma-separated shard list (or $LOGRD_ADDR)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, `usage: logr remote [-addr URL[,URL...]] <verb> [flags]

A comma-separated -addr runs a gateway over those shards in-process;
output is then the cluster's, in the single-daemon format.

verbs:
  health                     daemon liveness and gauges
  stats                      pipeline statistics
  ingest -in FILE            POST a raw/compact log file ("-" = stdin)
  estimate -q SQL            frequency + count estimate from the summary
  count -q SQL               exact containment count
  seal                       freeze the active buffer into a segment
  segments                   list sealed segments
  drift [-base-from N -base-to N -win-from N -win-to N]
                             windowed drift (defaults: newest segment vs
                             the preceding lookback)
  compact -min N             merge runs of small adjacent segments
  drop -id N                 retire segments before seal id
  summary [-out FILE] [-from N -to N]
                             download the binary summary artifact (a
                             range needs one daemon: seal ids are per
                             shard)`)
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("remote: missing verb")
	}
	verb, rest := fs.Arg(0), fs.Args()[1:]
	base := *addr
	if strings.Contains(base, ",") {
		g, err := gateway.New(gateway.Options{Shards: strings.Split(base, ",")})
		if err != nil {
			return err
		}
		defer func() { _ = g.Close() }() // stops the health prober; never fails
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv := &http.Server{Handler: g.Handler()}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()
		defer func() { srv.Close(); <-served }()
		base = "http://" + ln.Addr().String()
	}
	c := client.New(base)
	switch verb {
	case "health":
		h, err := c.Health(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("status:   %s\nqueries:  %d (%d active)\nsegments: %d\ndir:      %s\n",
			h.Status, h.Queries, h.Active, h.Segments, h.Dir)
		return nil
	case "stats":
		s, err := c.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("queries:              %d\ndistinct:             %d\nfeatures (w/o const): %d\navg features/query:   %.2f\nunparseable:          %d\n",
			s.Queries, s.DistinctQueries, s.FeaturesNoConst, s.AvgFeaturesPerQuery, s.Unparseable)
		return nil
	case "ingest":
		return remoteIngest(ctx, c, rest)
	case "estimate":
		q, err := patternArg("estimate", rest)
		if err != nil {
			return err
		}
		est, err := c.Estimate(ctx, q)
		if err != nil {
			return err
		}
		fmt.Printf("estimated frequency: %.4f (%.0f queries of %d at epoch)\n",
			est.Frequency, est.Count, est.Epoch.TotalQueries)
		return nil
	case "count":
		q, err := patternArg("count", rest)
		if err != nil {
			return err
		}
		n, err := c.Count(ctx, q)
		if err != nil {
			return err
		}
		fmt.Printf("true count: %d queries\n", n)
		return nil
	case "seal":
		r, err := c.Seal(ctx)
		if err != nil {
			return err
		}
		if !r.Sealed {
			fmt.Println("nothing to seal (empty active buffer)")
			return nil
		}
		fmt.Printf("sealed segment %d\n", r.ID)
		return nil
	case "segments":
		r, err := c.Segments(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("segments (%d sealed, %d active queries):\n", len(r.Segments), r.ActiveQueries)
		for _, sg := range r.Segments {
			span := fmt.Sprintf("%d", sg.ID)
			if sg.EndID > sg.ID+1 {
				span = fmt.Sprintf("%d..%d", sg.ID, sg.EndID-1)
			}
			fmt.Printf("  [%s]  %7d queries, %5d distinct, universe %d\n",
				span, sg.Queries, sg.Distinct, sg.Epoch.Universe)
		}
		return nil
	case "drift":
		dfs := flag.NewFlagSet("remote drift", flag.ExitOnError)
		baseFrom := dfs.Int("base-from", -1, "baseline range start seal id")
		baseTo := dfs.Int("base-to", -1, "baseline range end seal id (exclusive)")
		winFrom := dfs.Int("win-from", -1, "window range start seal id")
		winTo := dfs.Int("win-to", -1, "window range end seal id (exclusive)")
		if err := dfs.Parse(rest); err != nil {
			return err
		}
		rep, err := c.Drift(ctx, *baseFrom, *baseTo, *winFrom, *winTo)
		if err != nil {
			return err
		}
		fmt.Printf("window [%d,%d) vs baseline [%d,%d)\n", rep.WinFrom, rep.WinTo, rep.BaseFrom, rep.BaseTo)
		fmt.Printf("excess surprisal: %.2f nats/query\nnovelty rate:     %.2f%%\nalert:            %v\n",
			rep.Score, rep.NoveltyRate*100, rep.Alert)
		return nil
	case "compact":
		cfs := flag.NewFlagSet("remote compact", flag.ExitOnError)
		minQ := cfs.Int("min", 0, "merge runs of adjacent segments smaller than this many queries")
		if err := cfs.Parse(rest); err != nil {
			return err
		}
		if *minQ <= 0 {
			return fmt.Errorf("remote compact: -min is required")
		}
		r, err := c.Compact(ctx, *minQ)
		if err != nil {
			return err
		}
		fmt.Printf("eliminated %d segments\n", r.Eliminated)
		return nil
	case "drop":
		dfs := flag.NewFlagSet("remote drop", flag.ExitOnError)
		id := dfs.Int("id", -1, "retire segments entirely before this seal id")
		if err := dfs.Parse(rest); err != nil {
			return err
		}
		if *id < 0 {
			return fmt.Errorf("remote drop: -id is required")
		}
		r, err := c.DropBefore(ctx, *id)
		if err != nil {
			return err
		}
		fmt.Printf("dropped %d segments\n", r.Dropped)
		return nil
	case "summary":
		sfs := flag.NewFlagSet("remote summary", flag.ExitOnError)
		out := sfs.String("out", "", "output file (default stdout)")
		from := sfs.Int("from", -1, "range start seal id (with -to)")
		to := sfs.Int("to", -1, "range end seal id, exclusive (with -from)")
		if err := sfs.Parse(rest); err != nil {
			return err
		}
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out + ".tmp")
			if err != nil {
				return err
			}
			n, err := c.SummaryRaw(ctx, f, *from, *to)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				os.Remove(*out + ".tmp")
				return err
			}
			if err := os.Rename(*out+".tmp", *out); err != nil {
				os.Remove(*out + ".tmp")
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %d summary bytes to %s\n", n, *out)
			return nil
		}
		_, err := c.SummaryRaw(ctx, w, *from, *to)
		return err
	}
	fs.Usage()
	return fmt.Errorf("remote: unknown verb %q", verb)
}

func patternArg(verb string, rest []string) (string, error) {
	fs := flag.NewFlagSet("remote "+verb, flag.ExitOnError)
	q := fs.String("q", "", "pattern query, e.g. \"SELECT * FROM t WHERE x = ?\"")
	if err := fs.Parse(rest); err != nil {
		return "", err
	}
	if strings.TrimSpace(*q) == "" {
		return "", fmt.Errorf("remote %s: -q is required", verb)
	}
	return *q, nil
}

func remoteIngest(ctx context.Context, c *client.Client, rest []string) error {
	fs := flag.NewFlagSet("remote ingest", flag.ExitOnError)
	in := fs.String("in", "", "raw or compact log file (\"-\" = stdin)")
	if err := fs.Parse(rest); err != nil {
		return err
	}
	if *in == "" {
		return fmt.Errorf("remote ingest: -in is required")
	}
	var r io.Reader = os.Stdin
	if *in != "-" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r = f
	}
	res, err := c.IngestReader(ctx, r)
	if err != nil {
		return err
	}
	fmt.Printf("ingested %d entries; daemon now holds %d queries\n", res.Entries, res.TotalQueries)
	return nil
}
