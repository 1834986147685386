package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestServingGraphDeps pins what the serving binaries link: the paper's
// figure-only algorithms (spectral clustering, the Section 7–8 miners, the
// deviation sampler, their linear algebra and the maximum-entropy solver)
// and the figure drivers stay out of logrd and logrd-gateway, and the
// durability and telemetry layers stay below the summary pipeline.
func TestServingGraphDeps(t *testing.T) {
	for _, tc := range []struct {
		pkgs, banned []string
	}{
		{
			pkgs:   []string{"logr/cmd/logrd", "logr/cmd/logrd-gateway"},
			banned: []string{"logr/internal/mining", "logr/internal/linalg", "logr/internal/experiments", "logr/internal/maxent"},
		},
		{
			pkgs:   []string{"logr/internal/wal", "logr/internal/obs", "logr/internal/vfs"},
			banned: []string{"logr/internal/core", "logr/internal/cluster", "logr/internal/workload"},
		},
	} {
		for _, pkg := range tc.pkgs {
			deps := listDeps(t, pkg)
			for _, b := range tc.banned {
				if deps[b] {
					t.Errorf("%s depends on %s", pkg, b)
				}
			}
		}
	}
}

func listDeps(t *testing.T, pkg string) map[string]bool {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", pkg)
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=-mod=mod")
	out, err := cmd.Output()
	if err != nil {
		msg := ""
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		t.Fatalf("go list %s: %v\n%s", pkg, err, msg)
	}
	deps := make(map[string]bool)
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	return deps
}
