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
	var cfg RunConfig
	ShellFlags(fs, ":8080", &cfg.Shell, &cfg.Server.MaxBodyBytes, &cfg.Server.MaxLineBytes)
	dir := fs.String("dir", "logrd-data", "data directory (WAL + checkpoints)")
	segment := fs.Int("segment", 50000, "auto-seal the ingest buffer every N queries (0 = explicit /seal only)")
	compact := fs.Int("compact", 0, "auto-compact adjacent segments smaller than N queries (0 = off)")
	k := fs.Int("k", 8, "clusters for served summaries (0 = auto sweep with no Error target: 32 clusters, fewer only if fewer reproduce the log exactly)")
	seed := fs.Int64("seed", 1, "clustering seed")
	par := fs.Int("p", 0, "parallelism: worker count (0 = all cores, 1 = serial)")
	sync := fs.String("sync", "interval", "WAL fsync policy: always | interval | off")
	syncEvery := fs.Duration("sync-every", 100*time.Millisecond, "staleness bound of -sync interval")
	checkpoint := fs.Int64("checkpoint", 0, "checkpoint + rotate the WAL every N bytes of log growth (0 = default 1 MiB, negative = off)")
	extended := fs.Bool("extended", false, "use the extended feature scheme (GROUP BY / ORDER BY / aggregates)")
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
	cfg.Dir = *dir
	cfg.Workload = logr.Options{
		ExtendedScheme:   *extended,
		Parallelism:      *par,
		SegmentThreshold: *segment,
		CompactSegments:  *compact,
		MaxLineBytes:     cfg.Server.MaxLineBytes,
		Sync:             pol,
		SyncEvery:        *syncEvery,
		CheckpointBytes:  *checkpoint,
	}
	cfg.Server.Compress = logr.CompressOptions{Clusters: *k, Seed: *seed, Parallelism: *par}
	return cfg, nil
}
