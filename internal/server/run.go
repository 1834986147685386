package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"logr"
	"logr/internal/obs"
)

// RunConfig configures a daemon run (shared by cmd/logrd and `logr serve`).
type RunConfig struct {
	// Addr is the listen address (e.g. ":8080"; ":0" picks a free port).
	Addr string
	// PprofAddr, when non-empty, serves net/http/pprof on its own listener
	// and mux at this address (profiling never shares the API surface).
	// Empty means no profiling endpoint at all.
	PprofAddr string
	// Dir is the durable workload's data directory.
	Dir string
	// Workload are the workload options (encoding, segmentation, fsync
	// policy, checkpoints).
	Workload logr.Options
	// Server are the serving-layer options.
	Server Options
	// ShutdownGrace bounds the drain of in-flight requests at shutdown
	// (default 10s).
	ShutdownGrace time.Duration
	// OnListen, when non-nil, is invoked with the bound address once the
	// listener is up (tests and callers binding ":0" learn the port here).
	OnListen func(addr net.Addr)
	// Logf logs lifecycle events (default log.Printf).
	Logf func(format string, args ...any)
}

// Run opens the durable workload, serves it on Addr, and blocks until ctx
// is canceled (the signal-aware callers cancel on SIGINT/SIGTERM) or the
// listener fails. Shutdown is graceful and durable: in-flight requests
// drain within ShutdownGrace, the active buffer is sealed (so the tail of
// ingest is a segment range queries can address), and the WAL is synced
// and closed —
// reopening the directory then recovers everything that was ever
// acknowledged.
func Run(ctx context.Context, cfg RunConfig) error {
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	grace := cfg.ShutdownGrace
	if grace <= 0 {
		grace = 10 * time.Second
	}
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

	srv := New(w, cfg.Server)
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return errors.Join(err, w.Close())
	}
	if cfg.OnListen != nil {
		cfg.OnListen(ln.Addr())
	}
	logf("logrd: listening on %s", ln.Addr())

	if cfg.PprofAddr != "" {
		pln, err := net.Listen("tcp", cfg.PprofAddr)
		if err != nil {
			ln.Close()
			return errors.Join(fmt.Errorf("pprof listener: %w", err), w.Close())
		}
		ps := &http.Server{Handler: obs.PprofMux()}
		go ps.Serve(pln)
		defer ps.Close()
		logf("logrd: pprof on %s", pln.Addr())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	var runErr error
	select {
	case err := <-serveErr:
		runErr = err
	case <-ctx.Done():
		logf("logrd: shutting down: draining requests, sealing, syncing WAL")
		shutCtx, cancel := context.WithTimeout(context.Background(), grace)
		if err := hs.Shutdown(shutCtx); err != nil {
			runErr = err
		}
		cancel()
	}

	// seal the ingest tail into a segment, then flush and close the WAL;
	// the first failure wins but every step still runs
	if _, ok := w.Seal(); ok {
		logf("logrd: sealed the active buffer")
	}
	if err := w.Close(); err != nil && runErr == nil {
		runErr = err
	}
	if runErr != nil && errors.Is(runErr, http.ErrServerClosed) {
		runErr = nil
	}
	logf("logrd: closed %s: %d queries durable", cfg.Dir, w.Queries())
	return runErr
}
