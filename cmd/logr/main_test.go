package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the CLI itself when LOGR_CLI_ARGS is set: runCLI re-executes
// the test binary that way, so a test sees main's output and exit code.
func TestMain(m *testing.M) {
	if args := os.Getenv("LOGR_CLI_ARGS"); args != "" {
		os.Args = append([]string{"logr"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCLI runs `logr args...` in a child process and returns its combined
// output and exit code.
func runCLI(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "LOGR_CLI_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return string(out), ee.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

// writeLog writes a two-statement log and returns its path.
func writeLog(t *testing.T) string {
	t.Helper()
	in := filepath.Join(t.TempDir(), "log.sql")
	sql := "SELECT _id FROM messages WHERE status = ?\nSELECT name FROM contacts WHERE chat_id = ?\n"
	if err := os.WriteFile(in, []byte(sql), 0o644); err != nil {
		t.Fatal(err)
	}
	return in
}

// TestCompressRefusesRemovedMethod: `logr compress -method spectral` must
// exit non-zero with an error naming the accepted methods, and so must
// -metric, which is not a compress flag.
func TestCompressRefusesRemovedMethod(t *testing.T) {
	in := writeLog(t)
	if out, code := runCLI(t, "compress", "-in", in, "-k", "2"); code != 0 {
		t.Fatalf("kmeans compress exited %d:\n%s", code, out)
	}
	out, code := runCLI(t, "compress", "-in", in, "-k", "2", "-method", "spectral")
	if code == 0 {
		t.Fatalf("-method spectral exited 0:\n%s", out)
	}
	if !strings.Contains(out, "kmeans") || !strings.Contains(out, "hierarchical") {
		t.Errorf("-method spectral error does not name the accepted methods:\n%s", out)
	}
	if out, code := runCLI(t, "compress", "-in", in, "-k", "2", "-metric", "hamming"); code == 0 {
		t.Errorf("-metric exited 0:\n%s", out)
	}
}

// TestDriftEmptyBaseline: `logr drift` against an empty baseline file exits
// normally and reports every window query as novel.
func TestDriftEmptyBaseline(t *testing.T) {
	window := writeLog(t)
	empty := filepath.Join(t.TempDir(), "empty.sql")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code := runCLI(t, "drift", "-baseline", empty, "-window", window)
	if code != 0 {
		t.Fatalf("drift exited %d:\n%s", code, out)
	}
	if !strings.Contains(out, "novelty rate:     100.00%") || !strings.Contains(out, "alert:            true") {
		t.Errorf("drift against an empty baseline did not report full novelty:\n%s", out)
	}
}
