// Package faultfs is a deterministic fault-injecting filesystem for
// crash-safety tests: a fully in-memory vfs.FS that counts every IO
// operation, fires scripted faults (fail op N with EIO/ENOSPC, land a
// short write then crash, lie on fsync, drop a rename), and can snapshot
// "what actually reached disk" for post-crash reopen.
//
// Every file keeps two views: the live content (what a process reading the
// file sees) and the durable content (the snapshot taken by the last
// fsync). CrashImage builds a new healthy FS from one view or the other —
// the pessimistic image keeps only fsynced files at their last-synced
// content (what a power cut guarantees), the lax image keeps everything
// (the page cache happened to flush) — so one workload run can be
// re-opened against either end of the crash-outcome spectrum. Renames are
// modeled as atomic and immediately durable (journaled metadata), which is
// exactly the contract the temp-write→fsync→rename pattern relies on.
//
// The op trace doubles as the call-site enumerator for the fault matrix:
// run a workload once with no rules to learn the IO schedule, then re-run
// it once per (op, fault class) pair.
package faultfs

import (
	"fmt"
	"io"
	iofs "io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"syscall"
	"time"

	"logr/internal/vfs"
)

// ErrCrashed is returned by every operation after a simulated crash. It
// wraps EROFS so vfs.Fatal classifies it as non-retryable and the store
// degrades immediately instead of burning retry backoff.
var ErrCrashed = fmt.Errorf("faultfs: filesystem crashed (simulated): %w", syscall.EROFS)

// EIO and ENOSPC are convenience fault errors carrying the matching errno
// (EIO classifies transient, ENOSPC fatal).
var (
	EIO    = fmt.Errorf("faultfs: injected IO error: %w", syscall.EIO)
	ENOSPC = fmt.Errorf("faultfs: injected disk full: %w", syscall.ENOSPC)
)

// Op is one recorded IO operation.
type Op struct {
	Seq  int64  // 1-based global sequence number
	Kind string // "open", "write", "sync", "read", "readat", "rename", "remove", "truncate", "readdir", "stat", "mkdir", "close", "lock"
	Path string
}

// Rule is one scripted fault. A rule fires once and is then spent, unless
// it is Sticky. Either pin an absolute op (Seq) — the fault matrix's mode —
// or match by Kind/Path substring and occurrence count (Nth, 1-based).
type Rule struct {
	Seq    int64  // fire at this absolute op sequence (0 = match by kind/path)
	Kind   string // op kind to match ("" = any)
	Path   string // path substring to match ("" = any)
	Nth    int    // fire on the Nth match (0 = first)
	Sticky bool   // kind/path rules: fire on every match from the Nth on (a disk that never heals)

	Err        error // error to return (nil with Crash set returns ErrCrashed)
	ShortWrite int   // write ops: land this many bytes of the buffer first
	Crash      bool  // freeze the filesystem after applying partial effects
	SyncLies   bool  // sync ops: return success without making data durable

	matches int
}

type inode struct {
	data       []byte // live content
	durable    []byte // content as of the last (honest) fsync
	everSynced bool   // the file's existence reached stable storage
	mtime      time.Time
}

// FS is the fault-injecting filesystem. The zero value is not usable;
// construct with New. All methods are safe for concurrent use.
type FS struct {
	mu      sync.Mutex
	files   map[string]*inode
	dirs    map[string]bool
	ops     int64
	trace   []Op
	rules   []*Rule
	crashed bool
	reads   map[string]int64
}

// New returns an empty healthy filesystem.
func New() *FS {
	return &FS{files: map[string]*inode{}, dirs: map[string]bool{"/": true, ".": true}, reads: map[string]int64{}}
}

// AddRule schedules a fault.
func (f *FS) AddRule(r Rule) {
	f.mu.Lock()
	defer f.mu.Unlock()
	rc := r
	f.rules = append(f.rules, &rc)
}

// FailAt schedules err to be returned by the op with absolute sequence
// number seq (1-based, as reported by Trace).
func (f *FS) FailAt(seq int64, err error) { f.AddRule(Rule{Seq: seq, Err: err}) }

// CrashAt schedules a crash at op seq: if the op is a write, short bytes
// land first; then the filesystem freezes and every later op fails.
func (f *FS) CrashAt(seq int64, short int) { f.AddRule(Rule{Seq: seq, ShortWrite: short, Crash: true}) }

// LieSyncAt makes the sync with absolute sequence seq report success
// without making anything durable.
func (f *FS) LieSyncAt(seq int64) { f.AddRule(Rule{Seq: seq, SyncLies: true}) }

// Ops returns the number of operations performed so far.
func (f *FS) Ops() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Trace returns a copy of the full op trace.
func (f *FS) Trace() []Op {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]Op(nil), f.trace...)
}

// ReadBytes reports how many bytes have been read from path (recovery
// replay accounting: the O(tail) checkpoint test asserts reopen reads only
// the WAL's unsealed tail).
func (f *FS) ReadBytes(path string) int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.reads[filepath.Clean(path)]
}

// Crashed reports whether a crash rule has fired.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// CrashImage builds a fresh healthy filesystem holding what a reopening
// process would find on disk. With keepUnsynced the live content of every
// file survives (the page cache flushed before the power died); without
// it, only fsynced files survive, at their last honestly-synced content —
// the guarantee floor. Directories always survive (metadata journaling).
func (f *FS) CrashImage(keepUnsynced bool) *FS {
	f.mu.Lock()
	defer f.mu.Unlock()
	img := New()
	for d := range f.dirs {
		img.dirs[d] = true
	}
	for path, ino := range f.files {
		var content []byte
		switch {
		case keepUnsynced:
			content = append([]byte(nil), ino.data...)
		case ino.everSynced:
			content = append([]byte(nil), ino.durable...)
		default:
			continue // never fsynced: existence not guaranteed
		}
		img.files[path] = &inode{data: content, durable: append([]byte(nil), content...), everSynced: true, mtime: ino.mtime}
	}
	return img
}

// begin records one op and returns the fault rule that fires on it, if
// any. The caller applies the rule's partial effects before surfacing its
// error.
func (f *FS) begin(kind, path string) (*Rule, error) {
	if f.crashed {
		return nil, ErrCrashed
	}
	f.ops++
	f.trace = append(f.trace, Op{Seq: f.ops, Kind: kind, Path: path})
	for i, r := range f.rules {
		fire := false
		if r.Seq > 0 {
			fire = r.Seq == f.ops
		} else if (r.Kind == "" || r.Kind == kind) && (r.Path == "" || contains(path, r.Path)) {
			r.matches++
			nth := r.Nth
			if nth <= 0 {
				nth = 1
			}
			fire = r.matches == nth || r.Sticky && r.matches > nth
		}
		if fire {
			if !r.Sticky {
				f.rules = append(f.rules[:i], f.rules[i+1:]...)
			}
			return r, nil
		}
	}
	return nil, nil
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// fire applies a rule's terminal effect (crash flag) and renders its
// error.
func (f *FS) fire(r *Rule) error {
	if r.Crash {
		f.crashed = true
		if r.Err != nil {
			return r.Err
		}
		return ErrCrashed
	}
	return r.Err
}

func notExist(op, path string) error {
	return &iofs.PathError{Op: op, Path: path, Err: iofs.ErrNotExist}
}

// OpenFile implements vfs.FS.
func (f *FS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("open", name)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return nil, err
		}
	}
	ino, exists := f.files[name]
	switch {
	case !exists && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case exists && flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0:
		return nil, &iofs.PathError{Op: "open", Path: name, Err: iofs.ErrExist}
	case !exists:
		ino = &inode{mtime: time.Now()}
		f.files[name] = ino
		f.dirs[filepath.Dir(name)] = true
	}
	if flag&os.O_TRUNC != 0 {
		ino.data = nil
	}
	return &file{fs: f, ino: ino, name: name}, nil
}

// Rename implements vfs.FS: atomic and immediately durable, like a
// journaled metadata operation. A fault rule on the rename drops it (the
// classic "rename never happened" crash outcome).
func (f *FS) Rename(oldname, newname string) error {
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("rename", oldname)
	if err != nil {
		return err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return err
		}
	}
	ino, ok := f.files[oldname]
	if !ok {
		return notExist("rename", oldname)
	}
	delete(f.files, oldname)
	f.files[newname] = ino
	f.dirs[filepath.Dir(newname)] = true
	return nil
}

// Remove implements vfs.FS.
func (f *FS) Remove(name string) error {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("remove", name)
	if err != nil {
		return err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return err
		}
	}
	if _, ok := f.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(f.files, name)
	return nil
}

// ReadDir implements vfs.FS.
func (f *FS) ReadDir(name string) ([]iofs.DirEntry, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("readdir", name)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return nil, err
		}
	}
	if !f.dirs[name] {
		return nil, notExist("readdir", name)
	}
	var names []string
	seen := map[string]bool{}
	for path := range f.files {
		if filepath.Dir(path) == name {
			names = append(names, filepath.Base(path))
		}
	}
	for d := range f.dirs {
		if filepath.Dir(d) == name && d != name && !seen[filepath.Base(d)] {
			names = append(names, filepath.Base(d)+"/")
		}
	}
	sort.Strings(names)
	ents := make([]iofs.DirEntry, 0, len(names))
	for _, n := range names {
		if n[len(n)-1] == '/' {
			ents = append(ents, dirEntry{name: n[:len(n)-1], dir: true})
			continue
		}
		ino := f.files[filepath.Join(name, n)]
		ents = append(ents, dirEntry{name: n, size: int64(len(ino.data)), mtime: ino.mtime})
	}
	return ents, nil
}

// MkdirAll implements vfs.FS.
func (f *FS) MkdirAll(name string, perm os.FileMode) error {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("mkdir", name)
	if err != nil {
		return err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return err
		}
	}
	for d := name; ; d = filepath.Dir(d) {
		f.dirs[d] = true
		if d == filepath.Dir(d) {
			break
		}
	}
	return nil
}

// Stat implements vfs.FS.
func (f *FS) Stat(name string) (iofs.FileInfo, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("stat", name)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return nil, err
		}
	}
	if ino, ok := f.files[name]; ok {
		return fileInfo{name: filepath.Base(name), size: int64(len(ino.data)), mtime: ino.mtime}, nil
	}
	if f.dirs[name] {
		return fileInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, notExist("stat", name)
}

// Lock implements vfs.FS. Single-process tests need no real lock; the op
// still counts (and can be faulted) so lock acquisition is part of the
// matrix.
func (f *FS) Lock(name string) (io.Closer, error) {
	name = filepath.Clean(name)
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.begin("lock", name)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if err := f.fire(r); err != nil {
			return nil, err
		}
	}
	if _, ok := f.files[name]; !ok {
		f.files[name] = &inode{mtime: time.Now()}
		f.dirs[filepath.Dir(name)] = true
	}
	return nopCloser{}, nil
}

type nopCloser struct{}

func (nopCloser) Close() error { return nil }

// file is one open handle. Handles follow their inode across renames,
// matching OS semantics (the WAL's rotation writes a temp file, renames it
// into place and keeps using the same handle).
type file struct {
	fs     *FS
	ino    *inode
	name   string
	off    int64
	closed bool
}

func (h *file) Name() string { return h.name }

func (h *file) Read(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	r, err := h.fs.begin("read", h.name)
	if err != nil {
		return 0, err
	}
	if r != nil {
		if err := h.fs.fire(r); err != nil {
			return 0, err
		}
	}
	if h.off >= int64(len(h.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[h.off:])
	h.off += int64(n)
	h.fs.reads[h.name] += int64(n)
	return n, nil
}

func (h *file) ReadAt(p []byte, off int64) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	r, err := h.fs.begin("readat", h.name)
	if err != nil {
		return 0, err
	}
	if r != nil {
		if err := h.fs.fire(r); err != nil {
			return 0, err
		}
	}
	if off >= int64(len(h.ino.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.ino.data[off:])
	h.fs.reads[h.name] += int64(n)
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (h *file) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	r, err := h.fs.begin("write", h.name)
	if err != nil {
		return 0, err
	}
	land := len(p)
	var ferr error
	if r != nil {
		ferr = h.fs.fire(r)
		if ferr != nil {
			land = r.ShortWrite
			if land > len(p) {
				land = len(p)
			}
		}
	}
	if land > 0 {
		end := h.off + int64(land)
		if end > int64(len(h.ino.data)) {
			grown := make([]byte, end)
			copy(grown, h.ino.data)
			h.ino.data = grown
		}
		copy(h.ino.data[h.off:], p[:land])
		h.off = end
		h.ino.mtime = time.Now()
	}
	if ferr != nil {
		return land, ferr
	}
	return land, nil
}

func (h *file) Seek(offset int64, whence int) (int64, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.fs.crashed {
		return 0, ErrCrashed
	}
	switch whence {
	case io.SeekStart:
		h.off = offset
	case io.SeekCurrent:
		h.off += offset
	case io.SeekEnd:
		h.off = int64(len(h.ino.data)) + offset
	}
	if h.off < 0 {
		h.off = 0
	}
	return h.off, nil
}

func (h *file) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	r, err := h.fs.begin("sync", h.name)
	if err != nil {
		return err
	}
	if r != nil {
		if r.SyncLies {
			// report success; durable view unchanged — the crash image
			// will expose the lie
			h.ino.everSynced = true
			return nil
		}
		if err := h.fs.fire(r); err != nil {
			return err
		}
	}
	h.ino.durable = append(h.ino.durable[:0], h.ino.data...)
	h.ino.everSynced = true
	return nil
}

func (h *file) Truncate(size int64) error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	r, err := h.fs.begin("truncate", h.name)
	if err != nil {
		return err
	}
	if r != nil {
		if err := h.fs.fire(r); err != nil {
			return err
		}
	}
	switch {
	case size < int64(len(h.ino.data)):
		h.ino.data = h.ino.data[:size]
	case size > int64(len(h.ino.data)):
		grown := make([]byte, size)
		copy(grown, h.ino.data)
		h.ino.data = grown
	}
	return nil
}

func (h *file) Close() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.closed {
		return nil
	}
	h.closed = true
	r, err := h.fs.begin("close", h.name)
	if err != nil {
		return err
	}
	if r != nil {
		if err := h.fs.fire(r); err != nil {
			return err
		}
	}
	return nil
}

type fileInfo struct {
	name  string
	size  int64
	dir   bool
	mtime time.Time
}

func (i fileInfo) Name() string { return i.name }
func (i fileInfo) Size() int64  { return i.size }
func (i fileInfo) Mode() iofs.FileMode {
	if i.dir {
		return iofs.ModeDir | 0o755
	}
	return 0o644
}
func (i fileInfo) ModTime() time.Time { return i.mtime }
func (i fileInfo) IsDir() bool        { return i.dir }
func (i fileInfo) Sys() any           { return nil }

type dirEntry struct {
	name  string
	size  int64
	dir   bool
	mtime time.Time
}

func (e dirEntry) Name() string { return e.name }
func (e dirEntry) IsDir() bool  { return e.dir }
func (e dirEntry) Type() iofs.FileMode {
	if e.dir {
		return iofs.ModeDir
	}
	return 0
}
func (e dirEntry) Info() (iofs.FileInfo, error) {
	return fileInfo{name: e.name, size: e.size, dir: e.dir, mtime: e.mtime}, nil
}
