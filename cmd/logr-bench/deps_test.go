package main

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestPaperDriverDeps pins logr-bench to the paper-figure drivers: it must
// not link the serving stack, whose performance the bench/ harness measures.
func TestPaperDriverDeps(t *testing.T) {
	cmd := exec.Command("go", "list", "-deps", "logr/cmd/logr-bench")
	cmd.Env = append(os.Environ(), "GOWORK=off", "GOPROXY=off", "GOFLAGS=-mod=mod")
	out, err := cmd.Output()
	if err != nil {
		msg := ""
		if ee, ok := err.(*exec.ExitError); ok {
			msg = string(ee.Stderr)
		}
		t.Fatalf("go list: %v\n%s", err, msg)
	}
	deps := make(map[string]bool)
	for _, p := range strings.Fields(string(out)) {
		deps[p] = true
	}
	for _, banned := range []string{
		"logr/internal/server",
		"logr/internal/gateway",
		"logr/client",
		"logr/internal/store",
		"logr/internal/wal",
	} {
		if deps[banned] {
			t.Errorf("logr-bench depends on %s", banned)
		}
	}
}
