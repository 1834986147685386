package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"logr"
	"logr/client"
	"logr/internal/obs"
	"logr/internal/server"
)

// Load shape shared by every workload, sized for two shared cores.
const (
	// clients is the number of closed-loop client goroutines, each on its
	// own keep-alive loopback connection.
	clients = 2
	// warmup runs before every measured window and is not measured.
	warmup = time.Second
	// setups is how many times a workload sets up at the least; setup_s is
	// the median and the last one is the one measured. A cheap set-up is
	// repeated until setupBudget has passed: a few hundredths of a second
	// of this box say little about the next.
	setups      = 3
	setupBudget = 1500 * time.Millisecond
	// smokeShrink is the factor by which a smoke run cuts its inputs.
	smokeShrink = 10
	// idleConns sizes each client's keep-alive pool, so that an open
	// loop's concurrent requests reuse connections.
	idleConns = 256
)

// metric is one reported number. N is the sample count behind it; a timing
// taken from a set of samples is their median and also carries the highest
// percentile the set supports (stats.go, tailPercentile).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// run is one execution of one workload: its inputs' seed, the length of
// its measured window, where it may write, and what it found.
type run struct {
	name   string
	seed   int64
	window time.Duration
	work   string  // scratch directory, removed when the run ends
	tr     *tracer // nil on the untraced run
	// small marks a smoke run: inputs a tenth the size, one set-up, a tenth
	// of the warm-up. It checks that a workload runs and reports every
	// metric; its numbers mean nothing.
	small bool

	e2e    map[string]metric
	layers map[string]metric
	// pace is the workload's work per second of window, the figure the
	// traced and untraced runs are compared on.
	pace      float64
	attempted atomic.Int64
	failed    atomic.Int64
	noteMu    sync.Mutex
	notes     []string
}

func (r *run) set(name string, v float64, n int) {
	r.e2e[name] = metric{Value: v, Unit: unitOf(endToEnd, name), N: n}
}

// setTiming reports the median of a set of latencies and its tail.
func (r *run) setTiming(name string, samples []float64) {
	t := summarize(samples)
	r.e2e[name] = metric{Value: t.P50, Unit: unitOf(endToEnd, name), N: t.N, TailP: t.TailP, Tail: t.Tail}
}

func (r *run) layer(name string, v float64, n int) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.layers[name] = metric{Value: v, Unit: unitOf(perLayer, name), N: n}
}

// n is a size of the benchmark as this run uses it.
func (r *run) n(full int) int {
	if r.small {
		return max(full/smokeShrink, 1)
	}
	return full
}

// epilogue is how long each measurement that follows the window runs for —
// the read-only phase of the ingest workloads, the repeated build of the
// summary — a tenth of the window. This box's speed wanders by tens of
// percent from one tenth of a second to the next, so a second of samples
// does not repeat to better than a fifth; what is measured here is reported
// per layer, not gated.
func (r *run) epilogue() time.Duration { return r.window / 10 }

func (r *run) warmup() time.Duration {
	if r.small {
		return warmup / smokeShrink
	}
	return warmup
}

// check counts one verification of the program's output.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted.Add(1)
	if ok {
		return
	}
	r.failed.Add(1)
	r.noteMu.Lock()
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
	r.noteMu.Unlock()
}

// request counts one request to the program; an error — a refusal (429), a
// server error or a transport failure — is a failed operation.
func (r *run) request(err error, format string, args ...any) {
	r.check(err == nil, "%s: %v", fmt.Sprintf(format, args...), err)
}

// must aborts the run on an error the benchmark itself cannot work past
// (a listener that will not open, a directory that cannot be made).
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// dir returns a fresh scratch directory under the run's work directory.
func (r *run) dir(name string) string {
	d := filepath.Join(r.work, name)
	must(os.RemoveAll(d))
	must(os.MkdirAll(d, 0o755))
	return d
}

// medianSetup sets a workload up `setups` times, and on until setupBudget
// has passed, tearing all but the last down again, and reports the median
// set-up time.
func medianSetup[T any](r *run, up func() T, down func(T)) T {
	begin := time.Now()
	another := func(done int) bool {
		switch {
		case r.small:
			return done < 1
		case done < setups:
			return true
		default:
			return time.Since(begin) < setupBudget
		}
	}
	var times []float64
	var last T
	for i := 0; another(i); i++ {
		if i > 0 {
			down(last)
		}
		runtime.GC() // each round from a collected heap, not from the last one's garbage
		t0 := time.Now()
		last = up()
		times = append(times, time.Since(t0).Seconds())
	}
	r.set("setup_s", median(times), len(times))
	return last
}

// --- process measurements -------------------------------------------------

// cpuSeconds is the process's user + system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB is the process's resident-set high-water mark (VmHWM).
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			return kb / 1024
		}
	}
	return 0
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// copyDir copies the regular files under src to dst, except the top-level
// file named skip.
func copyDir(src, dst, skip string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// files the store replaces while we walk (temp files, a
			// rotated WAL) may vanish; the image is whatever was there
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		rel, _ := filepath.Rel(src, path)
		if rel == skip {
			return nil
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// --- in-process servers -----------------------------------------------------

// storeOptions are the logrd flag defaults (-segment 50000 -k 8 -seed 1
// -sync interval -sync-every 100ms -checkpoint 1 MiB). The flush policy is
// SyncInterval everywhere.
func storeOptions(reg *obs.Registry) logr.Options {
	return logr.Options{
		SegmentThreshold: 50000,
		Sync:             logr.SyncInterval,
		SyncEvery:        100 * time.Millisecond,
		SealSummary:      servedSummary,
		Metrics:          reg,
	}
}

// servedSummary is the summary logrd serves and seals with (-k 8 -seed 1).
var servedSummary = logr.CompressOptions{Clusters: 8, Seed: 1}

// listener is an HTTP server on a real loopback socket.
type listener struct {
	url string
	hs  *http.Server
}

func listen(h http.Handler) *listener {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	must(err)
	l := &listener{url: "http://" + ln.Addr().String(), hs: &http.Server{Handler: h}}
	go l.hs.Serve(ln)
	return l
}

// close drops the listener and its connections. Every request has been
// answered by the time a workload stops a server, so there is nothing to
// drain — and a graceful Shutdown would wait five seconds on any connection
// a client's pool dialled and never used.
func (l *listener) close() {
	l.hs.Close()
}

// node is one in-process logrd: a durable workload, the serving layer over
// it and a listener, sharing one telemetry registry as the daemon does.
type node struct {
	dir string
	w   *logr.Workload
	srv *server.Server
	*listener
}

func startNode(r *run, dir string) *node {
	reg := obs.NewRegistry()
	w, err := logr.OpenDir(dir, storeOptions(reg))
	must(err)
	srv := server.New(w, server.Options{Compress: servedSummary, Obs: reg})
	h := srv.Handler()
	if r.tr != nil {
		h = spanMiddleware(r.tr, "server", h)
	}
	return &node{dir: dir, w: w, srv: srv, listener: listen(h)}
}

func (n *node) stop() {
	n.listener.close()
	n.w.Close()
}

// newClient returns a client with its own connection pool, so that each
// closed-loop client keeps one loopback connection alive; on a traced run
// its round trips are recorded.
func newClient(r *run, url string) *client.Client {
	var rt http.RoundTripper = &http.Transport{MaxIdleConns: idleConns, MaxIdleConnsPerHost: idleConns}
	if r.tr != nil {
		rt = &spanTransport{base: rt, tr: r.tr, name: "client.roundtrip"}
	}
	return client.New(url).WithTransport(rt)
}

// --- load generation --------------------------------------------------------

// ingestFunc ships one batch and returns the total the server reported.
type ingestFunc func(ctx context.Context, entries []logr.Entry) (total int, err error)

// clientIngest ships batches through c, recording on a traced run a span
// around the whole client call: its self time is what the client spends
// outside the round trip, marshalling the batch.
func clientIngest(r *run, c *client.Client) ingestFunc {
	return func(ctx context.Context, entries []logr.Entry) (int, error) {
		if r.tr == nil {
			res, err := c.Ingest(ctx, entries)
			return res.TotalQueries, err
		}
		s := r.tr.begin("client.ingest", span{})
		res, err := c.Ingest(withSpan(ctx, s), entries)
		r.tr.end(s)
		return res.TotalQueries, err
	}
}

// loopResult is what a load phase saw from outside.
type loopResult struct {
	ackMs    []float64 // per acknowledged batch
	acked    int64     // queries acknowledged
	maxTotal int       // highest total any acknowledgement reported
	elapsed  time.Duration
}

// closedLoop runs `clients` log shippers for d: each sends its next batch
// only once the previous one is acknowledged, so a slower server is
// offered less load. next(lane) yields the lane's next batch.
func closedLoop(r *run, d time.Duration, ingest []ingestFunc, next func(lane int) []logr.Entry) loopResult {
	var mu sync.Mutex
	var res loopResult
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	for lane := range ingest {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			var lat []float64
			var acked int64
			maxTotal := 0
			for time.Now().Before(deadline) {
				batch := next(lane)
				t0 := time.Now()
				total, err := ingest[lane](context.Background(), batch)
				r.request(err, "ingest")
				if err != nil {
					continue
				}
				lat = append(lat, float64(time.Since(t0))/1e6)
				acked += int64(len(batch))
				maxTotal = max(maxTotal, total)
			}
			mu.Lock()
			res.ackMs = append(res.ackMs, lat...)
			res.acked += acked
			res.maxTotal = max(res.maxTotal, maxTotal)
			mu.Unlock()
		}(lane)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// openResult is what an open-loop phase saw: per kind, the latency of each
// request counted from when it was due, and how late the generator sent it.
type openResult struct {
	latMs    [numOpKinds][]float64
	lateMs   []float64
	acked    int64
	maxTotal int
	elapsed  time.Duration
}

// inFlight bounds the requests of each kind an open loop has outstanding.
// Ingest comes from `clients` log shippers, each of which waits for its
// acknowledgement before it sends its next batch, however overdue that is;
// readers are many and independent. A request that must wait for a slot
// is sent late, and its latency, counted from when it was due, says so.
var inFlight = [numOpKinds]int{opIngest: clients, opEstimate: 128, opCount: 128}

// openLoop starts each event of a schedule when it is due, whether or not
// earlier ones have completed. do performs one event and returns the
// queries it had acknowledged (ingest) and the total the server reported.
func openLoop(r *run, events []event, do func(ev event) (acked int64, total int, err error)) openResult {
	var mu sync.Mutex
	var res openResult
	var wg sync.WaitGroup
	var slots [numOpKinds]chan struct{}
	for k := range slots {
		slots[k] = make(chan struct{}, inFlight[k])
	}
	start := time.Now()
	for _, ev := range events {
		for wait := time.Until(start.Add(ev.due)); wait > 0; wait = time.Until(start.Add(ev.due)) {
			pause(wait)
		}
		wg.Add(1)
		go func(ev event) {
			defer wg.Done()
			slots[ev.kind] <- struct{}{}
			sent := time.Since(start)
			acked, total, err := do(ev)
			done := time.Since(start)
			<-slots[ev.kind]
			r.request(err, "%s due at %v", ev.kind, ev.due)
			if err != nil {
				return
			}
			mu.Lock()
			res.latMs[ev.kind] = append(res.latMs[ev.kind], float64(done-ev.due)/1e6)
			res.lateMs = append(res.lateMs, float64(sent-ev.due)/1e6)
			res.acked += acked
			res.maxTotal = max(res.maxTotal, total)
			mu.Unlock()
		}(ev)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	return res
}

// pause sleeps for d on the kernel's clock. time.Sleep would do, were it
// not that the runtime's poller counts in whole milliseconds: a generator
// pacing itself with it runs half a millisecond late at the median, which
// is as long as the reads it times take. Returning early (a signal) only
// makes the caller come round again.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// probeReads has each of the given clients run estimates, and half as many
// counts, one after another for d, and returns their latencies in ms;
// answers must be finite and not negative.
func probeReads(r *run, cs []*client.Client, probes []string, d time.Duration) (estMs, cntMs []float64) {
	ctx := context.Background()
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(d)
	for lane, c := range cs {
		wg.Add(1)
		go func(lane int, c *client.Client) {
			defer wg.Done()
			var est, cnt []float64
			for i := lane; len(est) == 0 || time.Now().Before(deadline); i += len(cs) {
				q := probes[i%len(probes)]
				t0 := time.Now()
				got, err := c.Estimate(ctx, q)
				est = append(est, float64(time.Since(t0))/1e6)
				r.check(err == nil && finite(got.Count), "estimate %q: %v %v", q, got.Count, err)
				if len(est)%2 == 1 {
					t0 = time.Now()
					exact, err := c.Count(ctx, q)
					cnt = append(cnt, float64(time.Since(t0))/1e6)
					r.check(countOK(exact, err), "count %q: %v %v", q, exact, err)
				}
			}
			mu.Lock()
			estMs, cntMs = append(estMs, est...), append(cntMs, cnt...)
			mu.Unlock()
		}(lane, c)
	}
	wg.Wait()
	return estMs, cntMs
}

// errNoAnswer marks a reply that arrived but is not a usable number.
var errNoAnswer = errors.New("bench: the answer is not a finite, non-negative number")

// finite reports an estimate that is a number and not negative.
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0 }

// countOK accepts an exact count, and the server's 404 for a pattern whose
// features the log has never seen — a definite zero, not a failure.
func countOK(n int, err error) bool {
	if err == nil {
		return n >= 0
	}
	var api *client.APIError
	return errors.As(err, &api) && api.StatusCode == http.StatusNotFound
}

// read issues one scheduled read of an open loop; an answer that is no
// answer is an error like any other.
func read(ctx context.Context, c *client.Client, kind opKind, q string) error {
	if kind == opEstimate {
		est, err := c.Estimate(ctx, q)
		if err == nil && !finite(est.Count) {
			err = errNoAnswer
		}
		return err
	}
	n, err := c.Count(ctx, q)
	if countOK(n, err) {
		return nil
	}
	if err == nil {
		err = errNoAnswer
	}
	return err
}
