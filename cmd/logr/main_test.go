package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCompressRefusesRemovedMethod runs the CLI in a child process: `logr
// compress -method spectral` must exit non-zero with an error naming the
// accepted methods, and so must -metric, which is not a compress flag.
func TestCompressRefusesRemovedMethod(t *testing.T) {
	if args := os.Getenv("LOGR_CLI_ARGS"); args != "" {
		os.Args = append([]string{"logr"}, strings.Split(args, "\n")...)
		main()
		os.Exit(0)
	}
	in := filepath.Join(t.TempDir(), "log.sql")
	sql := "SELECT _id FROM messages WHERE status = ?\nSELECT name FROM contacts WHERE chat_id = ?\n"
	if err := os.WriteFile(in, []byte(sql), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(args ...string) (string, int) {
		cmd := exec.Command(os.Args[0], "-test.run=^TestCompressRefusesRemovedMethod$")
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
	if out, code := run("compress", "-in", in, "-k", "2"); code != 0 {
		t.Fatalf("kmeans compress exited %d:\n%s", code, out)
	}
	out, code := run("compress", "-in", in, "-k", "2", "-method", "spectral")
	if code == 0 {
		t.Fatalf("-method spectral exited 0:\n%s", out)
	}
	if !strings.Contains(out, "kmeans") || !strings.Contains(out, "hierarchical") {
		t.Errorf("-method spectral error does not name the accepted methods:\n%s", out)
	}
	if out, code := run("compress", "-in", in, "-k", "2", "-metric", "hamming"); code == 0 {
		t.Errorf("-metric exited 0:\n%s", out)
	}
}
