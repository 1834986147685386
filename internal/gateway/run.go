package gateway

import (
	"context"
	"errors"
	"flag"
	"log"
	"strings"
	"time"

	"logr/internal/server"
)

// RunConfig configures a gateway run (cmd/logrd-gateway).
type RunConfig struct {
	server.Shell
	// Gateway are the fan-out options, including the shard list.
	Gateway Options
}

// ParseFlags registers and parses the gateway's flag set into a RunConfig.
func ParseFlags(fs *flag.FlagSet, args []string) (RunConfig, error) {
	var cfg RunConfig
	server.ShellFlags(fs, ":8081", &cfg.Shell, &cfg.Gateway.MaxBodyBytes, &cfg.Gateway.MaxLineBytes)
	shards := fs.String("shards", "", "comma-separated logrd base URLs (required)")
	fs.IntVar(&cfg.Gateway.MaxComponents, "max-components", 0, "coalesce the merged cluster summary to this component budget (0 = lossless merge)")
	fs.DurationVar(&cfg.Gateway.HedgeMin, "hedge-min", 2*time.Millisecond, "read hedging delay floor (the delay is each shard's p95; equal to -hedge-max fixes it)")
	fs.DurationVar(&cfg.Gateway.HedgeMax, "hedge-max", time.Second, "read hedging delay ceiling")
	fs.DurationVar(&cfg.Gateway.ProbeInterval, "probe", 2*time.Second, "shard health-probe interval")
	fs.IntVar(&cfg.Gateway.EjectAfter, "eject-after", 3, "consecutive shard failures before ejection")
	fs.DurationVar(&cfg.Gateway.Timeout, "timeout", 15*time.Second, "per-shard request timeout")
	if err := fs.Parse(args); err != nil {
		return RunConfig{}, err
	}
	for _, s := range strings.Split(*shards, ",") {
		if s = strings.TrimSpace(s); s != "" {
			cfg.Gateway.Shards = append(cfg.Gateway.Shards, s)
		}
	}
	if len(cfg.Gateway.Shards) == 0 {
		return RunConfig{}, errors.New("-shards is required (comma-separated logrd base URLs)")
	}
	return cfg, nil
}

// Run serves a gateway over cfg.Gateway.Shards through server.Serve and
// blocks until ctx is canceled or the listener fails; then it stops the
// health prober. The gateway holds no durable state of its own — every
// restart is stateless — so unlike logrd there is nothing to seal or sync
// on the way out.
func Run(ctx context.Context, cfg RunConfig) error {
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	if cfg.Gateway.Logf == nil {
		cfg.Gateway.Logf = cfg.Logf
	}
	g, err := New(cfg.Gateway)
	if err != nil {
		return err
	}
	g.logf("logrd-gateway: %d shards: %s", len(g.addrs), strings.Join(g.addrs, ", "))
	return errors.Join(server.Serve(ctx, cfg.Shell, "logrd-gateway", g.Handler(), nil), g.Close())
}
