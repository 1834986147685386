package faultfs

import (
	"errors"
	"os"
	"testing"

	"logr/internal/vfs"
)

func write(t *testing.T, fsys vfs.FS, name, data string, sync bool) error {
	t.Helper()
	f, err := fsys.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write([]byte(data)); err != nil {
		f.Close()
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func read(t *testing.T, fsys vfs.FS, name string) (string, error) {
	t.Helper()
	b, err := vfs.ReadFile(fsys, name)
	return string(b), err
}

// TestRuleFiresOnce: a scheduled fault is spent on first match; the same
// operation retried immediately succeeds (what the store's bounded retry
// loop relies on).
func TestRuleFiresOnce(t *testing.T) {
	f := New()
	f.AddRule(Rule{Kind: "open", Path: "a", Err: EIO})
	if _, err := f.OpenFile("a", os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, EIO) {
		t.Fatalf("first open error = %v, want EIO", err)
	}
	if err := write(t, f, "a", "x", true); err != nil {
		t.Fatalf("retry after spent rule: %v", err)
	}
}

// TestStickyRuleKeepsFiring: a sticky rule fails every match from its Nth
// on and leaves other paths alone.
func TestStickyRuleKeepsFiring(t *testing.T) {
	f := New()
	f.AddRule(Rule{Kind: "open", Path: "a", Nth: 2, Err: ENOSPC, Sticky: true})
	if err := write(t, f, "a", "x", true); err != nil {
		t.Fatalf("open before the Nth match: %v", err)
	}
	for i := 0; i < 3; i++ {
		if err := write(t, f, "a", "x", true); !errors.Is(err, ENOSPC) {
			t.Fatalf("open %d past Nth: error = %v, want ENOSPC", i+2, err)
		}
	}
	if err := write(t, f, "b", "x", true); err != nil {
		t.Fatalf("unmatched path: %v", err)
	}
}

// TestCrashImagePessimism: the conservative image keeps only fsynced
// content; the lax image keeps everything the process wrote. A rename is
// atomic and immediately durable on both.
func TestCrashImagePessimism(t *testing.T) {
	f := New()
	if err := write(t, f, "synced", "durable", true); err != nil {
		t.Fatal(err)
	}
	if err := write(t, f, "unsynced", "volatile", false); err != nil {
		t.Fatal(err)
	}
	if err := write(t, f, "moved.tmp", "artifact", true); err != nil {
		t.Fatal(err)
	}
	if err := f.Rename("moved.tmp", "moved"); err != nil {
		t.Fatal(err)
	}
	f.AddRule(Rule{Kind: "open", Path: "boom", Crash: true})
	if _, err := f.OpenFile("boom", os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash op error = %v, want ErrCrashed", err)
	}
	if !f.Crashed() {
		t.Fatal("Crashed() false after a crash rule fired")
	}
	// every subsequent op on the frozen filesystem fails
	if err := write(t, f, "late", "x", false); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash write error = %v, want ErrCrashed", err)
	}

	pess := f.CrashImage(false)
	if got, err := read(t, pess, "synced"); err != nil || got != "durable" {
		t.Fatalf("pessimistic image lost fsynced content: %q, %v", got, err)
	}
	if got, _ := read(t, pess, "unsynced"); got == "volatile" {
		t.Fatal("pessimistic image kept unsynced content")
	}
	if got, err := read(t, pess, "moved"); err != nil || got != "artifact" {
		t.Fatalf("rename not durable on pessimistic image: %q, %v", got, err)
	}

	lax := f.CrashImage(true)
	if got, err := read(t, lax, "unsynced"); err != nil || got != "volatile" {
		t.Fatalf("lax image lost live content: %q, %v", got, err)
	}
	// the images are healthy filesystems: writes work again
	if err := write(t, pess, "fresh", "y", true); err != nil {
		t.Fatalf("crash image not writable: %v", err)
	}
}

// TestTornWrite: a crash rule with a short-write prefix lands exactly that
// many bytes before freezing.
func TestTornWrite(t *testing.T) {
	f := New()
	if err := write(t, f, "wal", "", true); err != nil {
		t.Fatal(err)
	}
	f.AddRule(Rule{Kind: "write", Path: "wal", ShortWrite: 3, Crash: true})
	err := write(t, f, "wal", "record-bytes", false)
	if err == nil {
		t.Fatal("torn write reported success")
	}
	got, err := read(t, f.CrashImage(true), "wal")
	if err != nil {
		t.Fatal(err)
	}
	if got != "rec" {
		t.Fatalf("torn write landed %q, want the 3-byte prefix", got)
	}
}

// TestSyncLies: a lying fsync reports success but the pessimistic crash
// image must not contain the data it claimed to persist.
func TestSyncLies(t *testing.T) {
	f := New()
	f.AddRule(Rule{Kind: "sync", Path: "wal", SyncLies: true})
	if err := write(t, f, "wal", "acked", true); err != nil {
		t.Fatalf("lying fsync surfaced an error: %v", err)
	}
	f.AddRule(Rule{Kind: "stat", Path: "wal", Crash: true})
	f.Stat("wal")
	if got, _ := read(t, f.CrashImage(false), "wal"); got == "acked" {
		t.Fatal("fsync lied yet the pessimistic crash image kept the data")
	}
}

// TestReadAccounting: ReadBytes totals per-path reads — the measurement
// the checkpoint-bounds-recovery test is built on.
func TestReadAccounting(t *testing.T) {
	f := New()
	if err := write(t, f, "log", "0123456789", true); err != nil {
		t.Fatal(err)
	}
	if before := f.ReadBytes("log"); before != 0 {
		t.Fatalf("ReadBytes before any read = %d", before)
	}
	if _, err := vfs.ReadFile(f, "log"); err != nil {
		t.Fatal(err)
	}
	if got := f.ReadBytes("log"); got < 10 {
		t.Fatalf("ReadBytes after full read = %d, want >= 10", got)
	}
}
