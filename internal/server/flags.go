package server

import (
	"flag"
	"fmt"
	"time"

	"logr"
)

// ParseFlags registers and parses the daemon's flag set into a RunConfig;
// `logr serve` reuses it so both binaries accept identical flags.
func ParseFlags(fs *flag.FlagSet, args []string) (RunConfig, error) {
	addr := fs.String("addr", ":8080", "listen address")
	dir := fs.String("dir", "logrd-data", "data directory (WAL + checkpoints)")
	segment := fs.Int("segment", 50000, "auto-seal the ingest buffer every N queries (0 = explicit /seal only)")
	compact := fs.Int("compact", 0, "auto-compact adjacent segments smaller than N queries (0 = off)")
	k := fs.Int("k", 8, "clusters for served summaries")
	seed := fs.Int64("seed", 1, "clustering seed")
	par := fs.Int("p", 0, "parallelism: worker count (0 = all cores, 1 = serial)")
	sync := fs.String("sync", "interval", "WAL fsync policy: always | interval | off")
	syncEvery := fs.Duration("sync-every", 100*time.Millisecond, "staleness bound of -sync interval")
	checkpoint := fs.Int64("checkpoint", 0, "checkpoint + rotate the WAL every N bytes of log growth (0 = default 1 MiB, negative = off)")
	maxBody := fs.Int64("max-body", 32<<20, "max /ingest body bytes")
	maxLine := fs.Int("max-line", 0, "max bytes per text-ingest line (0 = 1 MiB)")
	extended := fs.Bool("extended", false, "use the extended feature scheme (GROUP BY / ORDER BY / aggregates)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	if err := fs.Parse(args); err != nil {
		return RunConfig{}, err
	}
	var pol logr.SyncPolicy
	switch *sync {
	case "always":
		pol = logr.SyncAlways
	case "", "interval":
		pol = logr.SyncInterval
	case "off", "never":
		pol = logr.SyncNever
	default:
		return RunConfig{}, fmt.Errorf("unknown -sync policy %q (always | interval | off)", *sync)
	}
	copts := logr.CompressOptions{Clusters: *k, Seed: *seed, Parallelism: *par}
	return RunConfig{
		Addr:      *addr,
		PprofAddr: *pprofAddr,
		Dir:       *dir,
		Workload: logr.Options{
			ExtendedScheme:   *extended,
			Parallelism:      *par,
			SegmentThreshold: *segment,
			CompactSegments:  *compact,
			MaxLineBytes:     *maxLine,
			Sync:             pol,
			SyncEvery:        *syncEvery,
			CheckpointBytes:  *checkpoint,
		},
		Server: Options{
			Compress:     copts,
			MaxBodyBytes: *maxBody,
			MaxLineBytes: *maxLine,
		},
	}, nil
}
