package server

import (
	"context"
	"errors"

	"logr"
	"logr/internal/obs"
)

// RunConfig configures a daemon run (shared by cmd/logrd and `logr serve`).
type RunConfig struct {
	Shell
	// Dir is the durable workload's data directory.
	Dir string
	// Workload are the workload options (encoding, segmentation, fsync
	// policy, checkpoints).
	Workload logr.Options
	// Server are the serving-layer options.
	Server Options
}

// Run opens the durable workload, serves it through Serve, and blocks until
// ctx is canceled or the listener fails. Shutdown is graceful and durable:
// in-flight requests drain, the active buffer is sealed (so the tail of
// ingest is a segment range queries can address), and the WAL is synced
// and closed — reopening the directory then recovers everything that was
// ever acknowledged.
func Run(ctx context.Context, cfg RunConfig) error {
	logf := cfg.logf()
	// One registry serves the whole process: the workload's WAL/store
	// series and the serving layer's HTTP series land in the same /metrics.
	if cfg.Server.Obs == nil {
		cfg.Server.Obs = obs.NewRegistry()
	}
	if cfg.Workload.Metrics == nil {
		cfg.Workload.Metrics = cfg.Server.Obs
	}
	w, err := logr.OpenDir(cfg.Dir, cfg.Workload)
	if err != nil {
		return err
	}
	logf("logrd: opened %s: %d queries, %d segments", cfg.Dir, w.Queries(), len(w.Segments()))
	err = Serve(ctx, cfg.Shell, "logrd", New(w, cfg.Server).Handler(), func() {
		// seal the ingest tail into a segment before the WAL is closed
		if _, ok := w.Seal(); ok {
			logf("logrd: sealed the active buffer")
		}
	})
	err = errors.Join(err, w.Close())
	logf("logrd: closed %s: %d queries durable", cfg.Dir, w.Queries())
	return err
}
