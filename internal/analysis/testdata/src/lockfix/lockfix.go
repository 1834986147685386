// Package lockfix is the lockdiscipline fixture: blocking calls under a
// held mutex are findings; the release-around-I/O, early-exit-unlock and
// defer-unlock idioms must track precisely; //logr:holds marks *Locked
// helpers and //logr:blocking marks slow same-package callees.
package lockfix

import (
	"os"
	"sync"
	"time"

	"logr/client"
	"logr/internal/cluster"
	"logr/internal/gateway"
	"logr/internal/obs"
	"logr/internal/vfs"
	"logr/internal/wal"
)

type S struct {
	mu sync.Mutex
	f  *os.File
}

// fsyncUnderLock is the bug class PR 5/6 fixed by hand: a deferred
// unlock keeps mu held across the fsync.
func (s *S) fsyncUnderLock() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Sync() // want `s\.f\.Sync \(fsync\) while holding s\.mu`
}

// releaseAroundSync is the fix idiom: drop the lock, sync, retake it.
func (s *S) releaseAroundSync() error {
	s.mu.Lock()
	s.mu.Unlock()
	err := s.f.Sync()
	s.mu.Lock()
	s.mu.Unlock()
	return err
}

// earlyExitUnlock must not leak the branch's unlock into the
// fall-through path: the write below still runs with mu held.
func (s *S) earlyExitUnlock(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.f.Write(nil) // want `s\.f\.Write \(file write\) while holding s\.mu`
	s.mu.Unlock()
}

// clusteringUnderLock burns clustering compute inside the lock.
func (s *S) clusteringUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cluster.KMeansBinary(4) // want `k-means clustering \(up to 100 Lloyd rounds over every point\)\) while holding s\.mu`
}

// nearestUnderLock places points by their nearest centroid inside the lock.
func (s *S) nearestUnderLock() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cluster.NearestBinary(4) // want `cluster\.NearestBinary \(nearest-centroid pass \(every point against every centroid\)\) while holding s\.mu`
}

func (s *S) dendrogramUnderLock() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return cluster.HierarchicalBinaryP(4) // want `hierarchical clustering \(n² distances \+ merge loop\)\) while holding s\.mu`
}

// sleepLocked documents lock ownership with //logr:holds: the lock is
// held on entry even though no Lock call appears in the body.
//
//logr:holds(s.mu)
func (s *S) sleepLocked() {
	time.Sleep(time.Millisecond) // want `time\.Sleep \(sleep\) while holding s\.mu`
}

// syncLockedRelease is the commitLocked idiom: a *Locked helper that
// releases around its blocking region.
//
//logr:holds(s.mu)
func (s *S) syncLockedRelease() error {
	s.mu.Unlock()
	err := s.f.Sync()
	s.mu.Lock()
	return err
}

//logr:blocking
func slowRebuild() {}

func (s *S) annotatedCallee() {
	s.mu.Lock()
	slowRebuild() // want `call to slowRebuild \(annotated //logr:blocking\) while holding s\.mu`
	s.mu.Unlock()
}

// handOff spawns the blocking work instead of doing it under the lock.
func (s *S) handOff() {
	s.mu.Lock()
	go slowRebuild()
	s.mu.Unlock()
}

// allowForm is the explicit suppression: a justified blocking call.
func (s *S) allowForm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.f.Sync() //logr:allow(lockdiscipline) shutdown path, no concurrent callers remain
}

// vfsSeam: the vfs.FS indirection carries the same audit as direct os
// calls — interface-method keys must match.
type V struct {
	mu   sync.Mutex
	fsys vfs.FS
	w    *wal.Log
}

func (v *V) renameUnderLock() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.fsys.Rename("a.tmp", "a") // want `v\.fsys\.Rename \(file rename\) while holding v\.mu`
}

func (v *V) atomicWriteUnderLock() {
	v.mu.Lock()
	vfs.WriteFileAtomic(v.fsys, "ckpt", nil) // want `vfs\.WriteFileAtomic \(atomic file write \(write\+fsync\+rename\)\) while holding v\.mu`
	v.mu.Unlock()
}

func (v *V) rotateUnderLock() error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.w.Rotate(0) // want `v\.w\.Rotate \(WAL rotation \(copies the live tail\)\) while holding v\.mu`
}

// releaseAroundRotate is the fix idiom for all three.
func (v *V) releaseAroundRotate() error {
	v.mu.Lock()
	cut := int64(0)
	v.mu.Unlock()
	return v.w.Rotate(cut)
}

// gatewayShard mirrors the gateway's shard struct: the health mutex
// guards counters only — a client round trip under it would serialize
// the whole fan-out behind one shard's network latency.
type gatewayShard struct {
	mu      sync.Mutex
	healthy bool
	c       *client.Client
	g       *gateway.Gateway
}

func (s *gatewayShard) countUnderLock() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.c.Count("q") // want `s\.c\.Count \(shard HTTP round-trip\) while holding s\.mu`
}

func (s *gatewayShard) ingestFanOutUnderLock() {
	s.mu.Lock()
	s.g.Ingest(nil) // want `s\.g\.Ingest \(cluster ingest fan-out \(N shard round trips\)\) while holding s\.mu`
	s.mu.Unlock()
}

// snapshotThenCall is the gateway's actual idiom: copy health state
// under the lock, release, then do the round trip.
func (s *gatewayShard) snapshotThenCall() (int, error) {
	s.mu.Lock()
	ok := s.healthy
	s.mu.Unlock()
	if !ok {
		return 0, nil
	}
	return s.c.Count("q")
}

// instrumented mirrors a component carrying obs handles: the record
// surface (atomic counters, set gauges, striped histograms) is designed
// to sit inside critical sections, so none of these calls are findings.
type instrumented struct {
	mu    sync.Mutex
	reg   *obs.Registry
	calls *obs.Counter
	depth *obs.Gauge
	lat   *obs.Histogram
}

func (i *instrumented) recordUnderLock(start time.Time) {
	i.mu.Lock()
	defer i.mu.Unlock()
	i.calls.Inc()
	i.calls.Add(3)
	i.depth.SetInt(7)
	i.lat.Record(42)
	i.lat.RecordSince(start)
}

// scrapeUnderLock is the one obs call that DOES block: rendering walks
// every series and writes to the scrape connection.
func (i *instrumented) scrapeUnderLock() error {
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.reg.WritePrometheus(os.Stdout) // want `i\.reg\.WritePrometheus \(metrics scrape render \(walks all series, writes to the connection\)\) while holding i\.mu`
}

// scrapeAfterUnlock is the fix idiom: render with no application lock.
func (i *instrumented) scrapeAfterUnlock() error {
	i.mu.Lock()
	i.calls.Inc()
	i.mu.Unlock()
	return i.reg.WritePrometheus(os.Stdout)
}
