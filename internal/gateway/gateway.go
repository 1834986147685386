// Package gateway is logrd's horizontal scale-out front: one HTTP
// endpoint that hash-partitions ingest across N logrd shards and
// answers analytics reads by scatter-gather over them — the paper's
// merge algebra doing distributed work. Because per-shard summaries
// combine losslessly (logr.MergeSummaries: union codebook, remapped
// mixtures, query-weighted error), the gateway serves a whole-cluster
// /estimate and /summary without ever moving raw queries between
// shards; /count sums exact per-shard counts; /stats, /segments and
// /drift aggregate per-shard payloads under a "shards" field; /seal,
// /compact and /dropBefore apply to every shard and fold their results.
//
// Placement is rendezvous hashing on the query's SQL text: a shard-set
// change remaps only ~1/N of the keyspace, and each key's full score
// ranking doubles as its failover order. Robustness is part of the
// design, not an afterthought:
//
//   - hedged reads: every read fan-out launches a backup request when a
//     shard has not answered within its observed p95 read latency (clamped),
//     and the first response wins — the tail-at-scale recipe;
//   - health ejection: consecutive shard failures (request-path or
//     background probe) eject a shard from reads and ingest ownership;
//     any later success — probe or request — re-admits it;
//   - partial results: reads answer with the reachable shards' data and
//     a shards_unavailable annotation instead of failing the request;
//     only a fully unreachable cluster is an error (502);
//   - ingest spill: entries owned by an ejected or refusing shard fall
//     through their rendezvous ranking to the next healthy shard, so a
//     single shard outage degrades placement, not durability.
//
// Every fan-out runs on one engine, fanout: scatter adds hedging for
// reads, mutate makes one attempt per shard for ingest and the other
// mutations, the health probe runs it bare, and gather folds the answers
// and names the shards that did not contribute.
//
// The HTTP shell around the handlers is logrd's (package server): the
// /ingest body decoder with its 400/413 statuses, the JSON reply and error
// writers, the shared flags, and the listen → pprof → serve → drain loop.
//
// Wire DTOs live in package logr/client (Cluster*), supersets of the
// single-node types, so any logrd client can point at a gateway; the
// client package documents what each route's single-node fields mean.
package gateway

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"logr"
	"logr/client"
	"logr/internal/obs"
	"logr/internal/server"
)

// Options configure a Gateway.
type Options struct {
	// Shards are the logrd base URLs (e.g. "http://10.0.0.1:8080").
	// Order is irrelevant to placement — rendezvous scores are — but the
	// list is the cluster identity: every gateway instance configured
	// with the same set routes identically.
	Shards []string
	// MaxComponents, when > 0, coalesces the merged cross-shard summary
	// down to this component budget (the reported error becomes an upper
	// bound); 0 keeps the lossless merge, one component per shard
	// cluster.
	MaxComponents int
	// MaxBodyBytes caps one /ingest request body (default 32 MiB).
	MaxBodyBytes int64
	// MaxLineBytes caps one line of a text/plain ingest body (default
	// 1 MiB, matching logrd).
	MaxLineBytes int
	// HedgeMin/HedgeMax clamp the hedging delay of read fan-outs: each
	// shard's observed p95 read latency, within [HedgeMin, HedgeMax]
	// (defaults 2ms and 1s). HedgeMin = HedgeMax fixes the delay.
	HedgeMin time.Duration
	HedgeMax time.Duration
	// ProbeInterval is the background health-probe cadence (default 2s).
	ProbeInterval time.Duration
	// EjectAfter is the consecutive-failure streak that ejects a shard
	// (default 3).
	EjectAfter int
	// Timeout bounds one shard round trip when the inbound request's
	// context has no deadline (default 15s).
	Timeout time.Duration
	// Transport overrides the shared client transport (tests, fan-out
	// tuning). Nil uses client.DefaultTransport.
	Transport http.RoundTripper
	// Obs is the telemetry registry served at GET /metrics. Nil gets a
	// private registry: instrumentation is always on, callers opt into
	// sharing the registry (e.g. Run wires one per process).
	Obs *obs.Registry
	// SlowRequest selects which completed requests the /debug/requests
	// ring keeps: 0 means obs.DefaultSlowRequest, negative means every
	// request (errored requests are always kept).
	SlowRequest time.Duration
	// Logf logs ejections, re-admissions and lifecycle (default: drop).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.MaxBodyBytes <= 0 {
		o.MaxBodyBytes = 32 << 20
	}
	if o.HedgeMin <= 0 {
		o.HedgeMin = 2 * time.Millisecond
	}
	if o.HedgeMax <= 0 {
		o.HedgeMax = time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = 2 * time.Second
	}
	if o.EjectAfter <= 0 {
		o.EjectAfter = 3
	}
	if o.Timeout <= 0 {
		o.Timeout = 15 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	if o.Obs == nil {
		o.Obs = obs.NewRegistry()
	}
	return o
}

// Gateway fronts a set of logrd shards. All handlers are safe for
// concurrent use. Construct with New; Close stops the health prober.
type Gateway struct {
	opts   Options
	addrs  []string
	shards []*shard
	mux    *http.ServeMux
	logf   func(format string, args ...any)

	probeStop chan struct{}
	probeDone chan struct{}

	// telemetry (see Options.Obs; the registry is never nil after New)
	httpm        *obs.HTTP
	ingested     *obs.Counter   // entries acknowledged by shards
	spilled      *obs.Counter   // entries routed past their rendezvous owner
	rejected     *obs.Counter   // entries no shard would accept
	hedgeFired   *obs.Counter   // backup requests launched by the hedge timer
	hedgeWon     *obs.Counter   // hedges whose backup answered first
	hedgeWasted  *obs.Counter   // hedges whose primary answered first anyway
	mergeSeconds *obs.Histogram // cache-miss merged-summary builds (fetch + merge)
	sumCacheHits *obs.Counter   // merged-summary epoch-cache hits
	sumCacheMiss *obs.Counter   // merged-summary rebuilds

	// sumMu guards the merged-summary cache; the cache key is the set of
	// participating shards with their query totals, so any acknowledged
	// ingest anywhere invalidates it.
	sumMu  sync.Mutex
	cached *mergedCache
}

type mergedCache struct {
	sum  *logr.Summary
	key  string
	n    int      // participating shards
	miss []string // shards that did not contribute
}

// New builds a gateway over opts.Shards and starts its health prober.
func New(opts Options) (*Gateway, error) {
	opts = opts.withDefaults()
	if len(opts.Shards) == 0 {
		return nil, errors.New("gateway: no shards configured")
	}
	seen := map[string]bool{}
	g := &Gateway{
		opts:      opts,
		mux:       http.NewServeMux(),
		logf:      opts.Logf,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
	}
	reg := opts.Obs
	for _, raw := range opts.Shards {
		addr := strings.TrimRight(strings.TrimSpace(raw), "/")
		if addr == "" || seen[addr] {
			return nil, fmt.Errorf("gateway: empty or duplicate shard address %q", raw)
		}
		seen[addr] = true
		c := client.New(addr).WithTimeout(opts.Timeout)
		if opts.Transport != nil {
			c = c.WithTransport(opts.Transport).WithTimeout(opts.Timeout)
		}
		s := &shard{addr: addr, c: c, healthy: true}
		s.ejects = reg.Counter("logr_shard_ejections_total",
			"Shards ejected from reads and ingest ownership after consecutive failures.",
			"shard", addr)
		reg.GaugeFunc("logr_shard_healthy",
			"1 while the shard is admitted, 0 while ejected.",
			func() float64 {
				if ok, _, _ := s.snapshotHealth(); ok {
					return 1
				}
				return 0
			}, "shard", addr)
		reg.GaugeFunc("logr_shard_consecutive_failures",
			"The shard's current consecutive-failure streak (EjectAfter of them ejects).",
			func() float64 { _, fails, _ := s.snapshotHealth(); return float64(fails) },
			"shard", addr)
		g.addrs = append(g.addrs, addr)
		g.shards = append(g.shards, s)
	}
	g.ingested = reg.Counter("logr_ingest_queries_total", "Queries acknowledged by shards through this gateway (entry multiplicities summed).")
	g.spilled = reg.Counter("logr_ingest_spilled_total", "Ingest entries routed past their rendezvous owner to a healthy shard.")
	g.rejected = reg.Counter("logr_ingest_rejected_total", "Ingest entries no shard would accept.")
	g.hedgeFired = reg.Counter("logr_hedge_fired_total", "Backup read requests launched because a shard outlived its hedging delay.")
	g.hedgeWon = reg.Counter("logr_hedge_won_total", "Hedged reads won by the backup request.")
	g.hedgeWasted = reg.Counter("logr_hedge_wasted_total", "Hedged reads the primary answered first anyway (duplicate work).")
	g.mergeSeconds = reg.Histogram("logr_merge_seconds", "Cache-miss merged-summary builds: per-shard summary fetch plus merge.")
	g.sumCacheHits = reg.Counter("logr_summary_epoch_cache_hits_total", "Merged-summary requests answered from the epoch cache.")
	g.sumCacheMiss = reg.Counter("logr_summary_epoch_cache_misses_total", "Merged-summary rebuilds (some shard's query total advanced).")
	g.httpm = obs.NewHTTP(reg, obs.NewRequestRing(obs.DefaultRingSize), opts.SlowRequest)

	handle := func(pattern, route string, h http.HandlerFunc) {
		g.mux.Handle(pattern, g.httpm.Wrap(route, h))
	}
	handle("POST /ingest", "/ingest", g.handleIngest)
	handle("GET /estimate", "/estimate", g.handleEstimate)
	handle("GET /count", "/count", g.handleCount)
	handle("GET /drift", "/drift", g.handleDrift)
	handle("GET /segments", "/segments", g.handleSegments)
	handle("GET /stats", "/stats", g.handleStats)
	handle("GET /summary", "/summary", g.handleSummary)
	handle("POST /seal", "/seal", g.handleSeal)
	handle("POST /compact", "/compact", g.handleCompact)
	handle("POST /dropBefore", "/dropBefore", g.handleDropBefore)
	handle("GET /healthz", "/healthz", g.handleHealth)
	handle("GET /readyz", "/readyz", g.handleReady)
	g.mux.Handle("GET /metrics", obs.Handler(reg))
	g.mux.Handle("GET /debug/requests", obs.RequestsHandler(g.httpm.Ring()))
	// one synchronous probe round, so a fresh gateway knows the shards'
	// health and query totals before its first tick
	g.probeOnce()
	go g.probeLoop()
	return g, nil
}

// Obs returns the gateway's telemetry registry (never nil).
func (g *Gateway) Obs() *obs.Registry { return g.opts.Obs }

// Ring returns the gateway's /debug/requests ring.
func (g *Gateway) Ring() *obs.RequestRing { return g.httpm.Ring() }

// Handler returns the gateway's HTTP handler.
func (g *Gateway) Handler() http.Handler { return g.mux }

// Close stops the background health prober. It never fails; the error
// return keeps the shutdown-path convention (and the stickyerr vet rule)
// of the other long-lived components.
func (g *Gateway) Close() error {
	select {
	case <-g.probeStop:
	default:
		close(g.probeStop)
	}
	<-g.probeDone
	return nil
}

// probeLoop polls every shard's /healthz on ProbeInterval: failures feed
// the ejection streak, successes re-admit and refresh the shard's last
// health answer. Ejection is therefore never permanent — a shard that
// comes back is readmitted within one probe interval even with zero
// traffic.
func (g *Gateway) probeLoop() {
	defer close(g.probeDone)
	t := time.NewTicker(g.opts.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-g.probeStop:
			return
		case <-t.C:
			g.probeOnce()
		}
	}
}

func (g *Gateway) probeOnce() {
	ctx, cancel := context.WithTimeout(context.Background(), g.opts.ProbeInterval)
	defer cancel()
	fanout(g.allIdx(), func(i int) (struct{}, error) {
		s := g.shards[i]
		h, err := s.c.Health(ctx)
		probe := &h
		if err != nil {
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				if s.noteFailure(g.opts.EjectAfter, err) {
					g.logf("gateway: shard %s ejected after %d probe failures", s.addr, g.opts.EjectAfter)
				}
				return struct{}{}, nil
			}
			// the daemon answered (degraded counts): alive
			probe = nil
		}
		if s.noteSuccess(probe, 0) {
			g.logf("gateway: shard %s re-admitted (probe)", s.addr)
		}
		return struct{}{}, nil
	})
}

// allIdx returns every shard index.
func (g *Gateway) allIdx() []int {
	out := make([]int, len(g.shards))
	for i := range out {
		out[i] = i
	}
	return out
}

// healthyIdx returns the indexes of admitted shards — or every index
// when all are ejected: during a full outage trying everyone is both
// the only useful move and the fastest path to re-admission.
func (g *Gateway) healthyIdx() []int {
	var out []int
	for i, s := range g.shards {
		if ok, _, _ := s.snapshotHealth(); ok {
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return g.allIdx()
	}
	return out
}

// skippedAddrs lists the shards a fan-out over idxs did not even try —
// the currently-ejected set. Reads annotate them as unavailable so the
// partial-result contract covers shards skipped by ejection exactly like
// shards that failed mid-request.
func (g *Gateway) skippedAddrs(idxs []int) []string {
	tried := map[int]bool{}
	for _, i := range idxs {
		tried[i] = true
	}
	var out []string
	for i, a := range g.addrs {
		if !tried[i] {
			out = append(out, a)
		}
	}
	return out
}

// callOutcome is one shard's result in a fan-out.
type callOutcome[T any] struct {
	idx int
	v   T
	err error
}

// shardCall is one shard's part of a fan-out: a call through the shard's
// client c, which also learns the shard's index i.
type shardCall[T any] func(ctx context.Context, c *client.Client, i int) (T, error)

// fanout runs call once per index concurrently and returns the outcomes in
// the order of idxs.
func fanout[T any](idxs []int, call func(i int) (T, error)) []callOutcome[T] {
	out := make([]callOutcome[T], len(idxs))
	var wg sync.WaitGroup
	for oi, idx := range idxs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := call(idx)
			out[oi] = callOutcome[T]{idx: idx, v: v, err: err}
		}()
	}
	wg.Wait()
	return out
}

// scatter fans the read fn out to the given shards concurrently with
// hedging and health accounting, and returns one outcome per index. A
// transport error feeds the ejection streak; an HTTP-level error (the daemon
// answered, just not 2xx) counts as alive but still fails the call.
func scatter[T any](ctx context.Context, g *Gateway, idxs []int, fn shardCall[T]) []callOutcome[T] {
	m := hedgeObs{fired: g.hedgeFired, won: g.hedgeWon, wasted: g.hedgeWasted}
	return fanout(idxs, func(i int) (T, error) {
		s := g.shards[i]
		delay := s.hedgeDelay(g.opts.HedgeMin, g.opts.HedgeMax)
		start := time.Now()
		v, err := hedged(ctx, delay, m, func(hctx context.Context) (T, error) {
			return fn(hctx, s.c, i)
		})
		d := time.Since(start)
		g.noteOutcome(s, err, d)
		obs.AddStage(ctx, "shard "+s.addr, d)
		return v, err
	})
}

// mutate fans fn out once to each given shard, without hedging: a
// backup request could apply a mutation twice. Health accounting matches
// scatter, but mutation latencies stay out of the hedging histogram.
func mutate[T any](ctx context.Context, g *Gateway, idxs []int, fn shardCall[T]) []callOutcome[T] {
	return fanout(idxs, func(i int) (T, error) {
		v, err := fn(ctx, g.shards[i].c, i)
		g.noteOutcome(g.shards[i], err, 0)
		return v, err
	})
}

// gather folds a fan-out's outcomes into a cluster response: add sees
// each answering shard's value, and the returned list names the shards
// that did not contribute (skipped by ejection or failed), sorted. When
// no shard answered, the error wraps the last shard error, so
// gatherFailureStatus can pass its status through.
func gather[T any](g *Gateway, route string, idxs []int, outs []callOutcome[T], add func(idx int, v T)) ([]string, error) {
	unavailable := g.skippedAddrs(idxs)
	answered := 0
	var lastErr error
	for _, o := range outs {
		if o.err != nil {
			unavailable = append(unavailable, g.addrs[o.idx])
			lastErr = o.err
			continue
		}
		answered++
		add(o.idx, o.v)
	}
	if answered == 0 {
		return nil, fmt.Errorf("gateway: no shard answered %s: %w", route, lastErr)
	}
	sort.Strings(unavailable)
	return unavailable, nil
}

// perShard fans call out to the admitted shards — through scatter for a
// read, mutate otherwise — and gathers the answers: each one under its
// shard address in the returned map, and into the cluster totals by add.
func perShard[T any](ctx context.Context, g *Gateway, route string, read bool, call shardCall[T], add func(i int, v T)) (map[string]T, []string, error) {
	idxs := g.healthyIdx()
	fan := mutate[T]
	if read {
		fan = scatter[T]
	}
	shards := map[string]T{}
	unavailable, err := gather(g, route, idxs, fan(ctx, g, idxs, call), func(i int, v T) {
		shards[g.addrs[i]] = v
		add(i, v)
	})
	return shards, unavailable, err
}

// reply writes a gathered response, or the gather's failure.
func reply(w http.ResponseWriter, res any, err error) {
	if err != nil {
		server.WriteErr(w, gatherFailureStatus(err), err)
		return
	}
	server.WriteJSON(w, http.StatusOK, res)
}

// noteOutcome translates a shard call result into health state.
func (g *Gateway) noteOutcome(s *shard, err error, d time.Duration) {
	if err == nil {
		if s.noteSuccess(nil, d) {
			g.logf("gateway: shard %s re-admitted (request)", s.addr)
		}
		return
	}
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		// an HTTP response is proof of life even when it is a refusal
		if s.noteSuccess(nil, 0) {
			g.logf("gateway: shard %s re-admitted (request)", s.addr)
		}
		return
	}
	if s.noteFailure(g.opts.EjectAfter, err) {
		g.logf("gateway: shard %s ejected after %d failures: %v", s.addr, g.opts.EjectAfter, err)
	}
}

// --- ingest -----------------------------------------------------------

func (g *Gateway) handleIngest(w http.ResponseWriter, r *http.Request) {
	entries, code, err := server.DecodeIngest(w, r, g.opts.MaxBodyBytes, g.opts.MaxLineBytes)
	if err != nil {
		server.WriteErr(w, code, err)
		return
	}
	res, err := g.Ingest(r.Context(), entries)
	if err != nil {
		server.WriteErr(w, http.StatusInternalServerError, err)
		return
	}
	code = http.StatusOK
	if res.Rejected > 0 {
		code = http.StatusBadGateway
	}
	server.WriteJSON(w, code, res)
}

// Ingest partitions entries by rendezvous owner and fans the
// sub-batches out concurrently. Entries whose owner is ejected — or
// whose owner fails the batch — spill down their rendezvous ranking to
// the next healthy shard. A 4xx other than 429 is no failure but a
// definitive answer: the owner refused that sub-batch (say, past the
// query cap), any other shard would too, so its entries do not spill.
// Entries a shard refused or no shard would accept are counted in
// Rejected (and the response becomes a 502 upstream). The
// returned TotalQueries is the cluster total: fresh counts from the
// shards that answered plus the last-known counts of the rest.
func (g *Gateway) Ingest(ctx context.Context, entries []logr.Entry) (client.ClusterIngestResult, error) {
	res := client.ClusterIngestResult{}
	healthySet := map[int]bool{}
	for _, i := range g.healthyIdx() {
		healthySet[i] = true
	}
	// exclude[i] accumulates shards that already failed this request so
	// respill rounds route around them
	exclude := map[int]bool{}
	pending := entries
	spilled := 0
	var ingestedQueries int64
	var unavailable []string
	freshTotals := map[int]int{}
	for round := 0; len(pending) > 0; round++ {
		parts := make([][]logr.Entry, len(g.shards))
		rejected := 0
		for _, e := range pending {
			owner := -1
			for _, i := range Rank(e.SQL, g.addrs) {
				if healthySet[i] && !exclude[i] {
					owner = i
					break
				}
			}
			if owner < 0 {
				rejected++
				continue
			}
			if round > 0 {
				spilled++
			}
			parts[owner] = append(parts[owner], e)
		}
		res.Rejected += rejected
		var idxs []int
		for i, p := range parts {
			if len(p) > 0 {
				idxs = append(idxs, i)
			}
		}
		if len(idxs) == 0 {
			break
		}
		// mutations do not hedge: /ingest is not idempotent
		outs := mutate(ctx, g, idxs, func(ctx context.Context, c *client.Client, i int) (client.IngestResult, error) {
			return c.Ingest(ctx, parts[i])
		})
		pending = pending[:0:0]
		for _, o := range outs {
			if refused(o.err) {
				res.Rejected += len(parts[o.idx])
				continue
			}
			if o.err != nil {
				exclude[o.idx] = true
				unavailable = append(unavailable, g.addrs[o.idx])
				pending = append(pending, parts[o.idx]...)
				continue
			}
			res.Entries += o.v.Entries
			ingestedQueries += server.EntryQueries(parts[o.idx])
			freshTotals[o.idx] = o.v.TotalQueries
		}
		if len(pending) > 0 && len(exclude) >= len(healthySet) {
			res.Rejected += len(pending)
			break
		}
	}
	for i, s := range g.shards {
		if t, ok := freshTotals[i]; ok {
			res.TotalQueries += t
			continue
		}
		_, _, h := s.snapshotHealth()
		res.TotalQueries += h.Queries
	}
	res.Spilled = spilled
	g.ingested.Add(ingestedQueries)
	g.spilled.Add(int64(spilled))
	g.rejected.Add(int64(res.Rejected))
	sort.Strings(unavailable)
	res.Unavailable = unavailable
	return res, nil
}

// refused reports a shard's definitive refusal of a request: an HTTP
// 4xx other than 429, which is backpressure and worth retrying
// elsewhere.
func refused(err error) bool {
	var apiErr *client.APIError
	return errors.As(err, &apiErr) && apiErr.StatusCode >= 400 && apiErr.StatusCode < 500 &&
		apiErr.StatusCode != http.StatusTooManyRequests
}

// --- merged summary ---------------------------------------------------

// MergedSummary scatter-gathers every healthy shard's binary summary
// and merges them into one cluster summary (logr.MergeSummaries). The
// result is cached and revalidated per call against the shards' query
// totals — one cheap hedged /healthz round — so a steady estimate
// stream pays the summary fetches only when ingest actually advanced
// somewhere. The second return lists shards that did not contribute.
func (g *Gateway) MergedSummary(ctx context.Context) (*logr.Summary, []string, error) {
	idxs := g.healthyIdx()
	checks := scatter(ctx, g, idxs, func(ctx context.Context, c *client.Client, _ int) (client.Health, error) {
		return c.Health(ctx)
	})
	var live []int
	miss := g.skippedAddrs(idxs)
	totals := map[int]int{}
	for _, o := range checks {
		if o.err != nil {
			miss = append(miss, g.addrs[o.idx])
			continue
		}
		live = append(live, o.idx)
		totals[o.idx] = o.v.Queries
	}
	if len(live) == 0 {
		return nil, miss, fmt.Errorf("gateway: no shard reachable (%d configured)", len(g.shards))
	}
	key := cacheKey(g.addrs, live, totals)
	g.sumMu.Lock()
	cached := g.cached
	g.sumMu.Unlock()
	if cached != nil && cached.key == key {
		g.sumCacheHits.Inc()
		return cached.sum, append(miss, cached.miss...), nil
	}
	g.sumCacheMiss.Inc()
	buildStart := time.Now()
	type fetched struct {
		sum     *logr.Summary
		queries int
	}
	outs := scatter(ctx, g, live, func(ctx context.Context, c *client.Client, _ int) (fetched, error) {
		var buf strings.Builder
		_, meta, err := c.SummaryRawMeta(ctx, &buf, -1, -1)
		if err != nil {
			return fetched{}, err
		}
		sum, err := logr.ReadSummary(strings.NewReader(buf.String()))
		if err != nil {
			return fetched{}, err
		}
		return fetched{sum: sum.WithError(meta.Err), queries: meta.Epoch.TotalQueries}, nil
	})
	var sums []*logr.Summary
	var have []int
	for _, o := range outs {
		if o.err != nil {
			miss = append(miss, g.addrs[o.idx])
			continue
		}
		sums = append(sums, o.v.sum)
		have = append(have, o.idx)
		totals[o.idx] = o.v.queries
	}
	if len(sums) == 0 {
		return nil, miss, fmt.Errorf("gateway: no shard summary fetchable (%d configured)", len(g.shards))
	}
	merged, err := logr.MergeSummaries(sums, logr.MergeSummariesOptions{MaxComponents: g.opts.MaxComponents})
	if err != nil {
		return nil, miss, fmt.Errorf("gateway: merging %d shard summaries: %w", len(sums), err)
	}
	sort.Strings(miss)
	g.mergeSeconds.RecordSince(buildStart)
	obs.AddStage(ctx, "merge", time.Since(buildStart))
	g.sumMu.Lock()
	g.cached = &mergedCache{sum: merged, key: cacheKey(g.addrs, have, totals), n: len(have), miss: miss}
	g.sumMu.Unlock()
	return merged, miss, nil
}

// cacheKey fingerprints a participating shard set and its query totals.
func cacheKey(addrs []string, idxs []int, totals map[int]int) string {
	sorted := append([]int(nil), idxs...)
	sort.Ints(sorted)
	var b strings.Builder
	for _, i := range sorted {
		fmt.Fprintf(&b, "%s=%d;", addrs[i], totals[i])
	}
	return b.String()
}

func (g *Gateway) handleEstimate(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		server.WriteErr(w, http.StatusBadRequest, errors.New("missing ?q= pattern"))
		return
	}
	sum, miss, err := g.MergedSummary(r.Context())
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err)
		return
	}
	freq, count, err := sum.Estimate(q)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	res := client.ClusterEstimateResult{
		EstimateResult: client.EstimateResult{Frequency: freq, Count: count, Epoch: sum.Epoch()},
		Shards:         len(g.shards) - len(miss),
		Unavailable:    miss,
	}
	if e := sum.Error(); !math.IsNaN(e) {
		res.Err = &e
	}
	server.WriteJSON(w, http.StatusOK, res)
}

func (g *Gateway) handleSummary(w http.ResponseWriter, r *http.Request) {
	if q := r.URL.Query(); q.Has("from") || q.Has("to") {
		server.WriteErr(w, http.StatusBadRequest, errors.New("gateway: ?from= and ?to= are per-shard seal ids; ask a shard for a range summary"))
		return
	}
	sum, miss, err := g.MergedSummary(r.Context())
	if err != nil {
		server.WriteErr(w, http.StatusBadGateway, err)
		return
	}
	if len(miss) > 0 {
		w.Header().Set("X-Logr-Shards-Unavailable", strings.Join(miss, ","))
	}
	server.WriteSummary(w, sum)
}

// --- scatter-gather reads --------------------------------------------

func (g *Gateway) handleCount(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query().Get("q")
	if q == "" {
		server.WriteErr(w, http.StatusBadRequest, errors.New("missing ?q= pattern"))
		return
	}
	idxs := g.healthyIdx()
	outs := scatter(r.Context(), g, idxs, func(ctx context.Context, c *client.Client, _ int) (int, error) {
		n, err := c.Count(ctx, q)
		// 404 = the shard never saw the pattern's features; under hash
		// partitioning that is the common case and means zero matches
		var apiErr *client.APIError
		if errors.As(err, &apiErr) && apiErr.StatusCode == http.StatusNotFound {
			return 0, nil
		}
		return n, err
	})
	var res client.ClusterCountResult
	var err error
	res.Unavailable, err = gather(g, "/count", idxs, outs, func(_ int, n int) { res.Count += n })
	reply(w, res, err)
}

func (g *Gateway) handleDrift(w http.ResponseWriter, r *http.Request) {
	var params [4]int
	for i, name := range []string{"baseFrom", "baseTo", "winFrom", "winTo"} {
		v, err := server.IntParam(r, name, -1)
		if err != nil {
			server.WriteErr(w, http.StatusBadRequest, err)
			return
		}
		params[i] = v
	}
	var res client.ClusterDriftResult
	totalW := 0.0
	var err error
	res.Shards, res.Unavailable, err = perShard(r.Context(), g, "/drift", true, func(ctx context.Context, c *client.Client, _ int) (client.DriftResult, error) {
		return c.Drift(ctx, params[0], params[1], params[2], params[3])
	}, func(i int, v client.DriftResult) {
		first := totalW == 0
		agree(&res.BaseFrom, v.BaseFrom, first)
		agree(&res.BaseTo, v.BaseTo, first)
		agree(&res.WinFrom, v.WinFrom, first)
		agree(&res.WinTo, v.WinTo, first)
		_, _, h := g.shards[i].snapshotHealth()
		wgt := float64(max(h.Queries, 1))
		totalW += wgt
		res.Score += wgt * v.Score
		res.NoveltyRate += wgt * v.NoveltyRate
		res.Alert = res.Alert || v.Alert
	})
	if err == nil {
		res.Score /= totalW
		res.NoveltyRate /= totalW
	}
	reply(w, res, err)
}

// agree folds one shard's resolved drift bound into the aggregate's: the
// first shard sets it, and a shard that resolved another value marks it -1.
func agree(agg *int, v int, first bool) {
	if first {
		*agg = v
	} else if *agg != v {
		*agg = -1
	}
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	var res client.ClusterStatsResult
	var err error
	res.Shards, res.Unavailable, err = perShard(r.Context(), g, "/stats", true, func(ctx context.Context, c *client.Client, _ int) (client.StatsResult, error) {
		return c.Stats(ctx)
	}, func(_ int, v client.StatsResult) {
		res.Queries += v.Queries
		res.Unparseable += v.Unparseable
	})
	res.Health = g.shardHealthView()
	reply(w, res, err)
}

// shardHealthView snapshots every shard's prober state (admission flag,
// consecutive-failure streak, last transport error, query total).
func (g *Gateway) shardHealthView() map[string]client.ShardHealth {
	out := make(map[string]client.ShardHealth, len(g.shards))
	for _, s := range g.shards {
		ok, fails, h := s.snapshotHealth()
		out[s.addr] = client.ShardHealth{
			Healthy:   ok,
			Fails:     fails,
			Queries:   h.Queries,
			LastError: s.snapshotLastErr(),
		}
	}
	return out
}

func (g *Gateway) handleSegments(w http.ResponseWriter, r *http.Request) {
	res := client.ClusterSegmentsResult{}
	res.Segments = []logr.SegmentInfo{}
	var err error
	res.Shards, res.Unavailable, err = perShard(r.Context(), g, "/segments", true, func(ctx context.Context, c *client.Client, _ int) (client.SegmentsResult, error) {
		return c.Segments(ctx)
	}, func(_ int, v client.SegmentsResult) {
		res.Segments = append(res.Segments, v.Segments...)
		res.ActiveQueries += v.ActiveQueries
	})
	reply(w, res, err)
}

func (g *Gateway) handleSeal(w http.ResponseWriter, r *http.Request) {
	var res client.ClusterSealResult
	var err error
	res.Shards, res.Unavailable, err = perShard(r.Context(), g, "/seal", false, func(ctx context.Context, c *client.Client, _ int) (client.SealResult, error) {
		return c.Seal(ctx)
	}, func(_ int, v client.SealResult) {
		if v.Sealed {
			res.Sealed, res.ID = true, max(res.ID, v.ID)
		}
	})
	reply(w, res, err)
}

func (g *Gateway) handleCompact(w http.ResponseWriter, r *http.Request) {
	minQ, err := server.IntParam(r, "min", -1)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	var res client.ClusterCompactResult
	res.Shards, res.Unavailable, err = perShard(r.Context(), g, "/compact", false, func(ctx context.Context, c *client.Client, _ int) (client.CompactResult, error) {
		return c.Compact(ctx, minQ)
	}, func(_ int, v client.CompactResult) { res.Eliminated += v.Eliminated })
	reply(w, res, err)
}

func (g *Gateway) handleDropBefore(w http.ResponseWriter, r *http.Request) {
	id, err := server.IntParam(r, "id", -1)
	if err != nil {
		server.WriteErr(w, http.StatusBadRequest, err)
		return
	}
	var res client.ClusterDropResult
	res.Shards, res.Unavailable, err = perShard(r.Context(), g, "/dropBefore", false, func(ctx context.Context, c *client.Client, _ int) (client.DropResult, error) {
		return c.DropBefore(ctx, id)
	}, func(_ int, v client.DropResult) { res.Dropped += v.Dropped })
	reply(w, res, err)
}

// gatherFailureStatus maps a whole-cluster gather failure onto a
// status: a shard's own HTTP error passes through (e.g. 400 for a bad
// pattern, identical on every shard), transport-level failure is 502.
func gatherFailureStatus(err error) int {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) {
		return apiErr.StatusCode
	}
	return http.StatusBadGateway
}

// --- health -----------------------------------------------------------

// handleHealth answers from the prober's per-shard view: Queries sums every
// shard's last-known total, Active and Segments only the admitted shards'.
func (g *Gateway) handleHealth(w http.ResponseWriter, r *http.Request) {
	res := client.ClusterHealth{Shards: g.shardHealthView()}
	healthy := 0
	for _, s := range g.shards {
		ok, _, h := s.snapshotHealth()
		res.Queries += h.Queries
		if ok {
			healthy++
			res.Active += h.Active
			res.Segments += h.Segments
		}
	}
	code := http.StatusOK
	switch {
	case healthy == len(g.shards):
		res.Status = "ok"
	case healthy > 0:
		res.Status = "partial"
	default:
		res.Status = "down"
		code = http.StatusServiceUnavailable
	}
	server.WriteJSON(w, code, res)
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	server.WriteJSON(w, http.StatusOK, client.Health{Status: "ok"})
}
