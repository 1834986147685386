package gateway

import (
	"context"
	"errors"
	"sync"
	"time"

	"logr/client"
	"logr/internal/obs"
	"logr/internal/stats"
)

// shard is one logrd backend as the gateway sees it: a typed client
// plus mutable health and latency state. The mutex guards only that
// state — never a network call; every client round trip happens with
// the lock released (the lockdiscipline analyzer enforces this).
type shard struct {
	addr string
	c    *client.Client
	// ejects counts this shard's ejections (resolved per shard at New;
	// obs counters record without blocking, so bumping under mu is fine).
	ejects *obs.Counter

	mu sync.Mutex
	// healthy is the admission flag: ejected shards are skipped by reads
	// and by ingest ownership until a probe re-admits them.
	healthy bool
	// fails is the consecutive-failure streak; EjectAfter of them ejects.
	fails int
	// last is the shard's answer to its last successful health probe:
	// its query total weights /drift, and its totals feed /healthz.
	last client.Health
	// lastErr is the most recent transport-level failure, kept for the
	// operator's /healthz and /metrics views; the next success clears it.
	lastErr string
	// hist records successful read round-trip latencies (ns); the
	// hedging delay derives from its p95.
	hist stats.Histogram
}

// snapshotHealth returns (healthy, fails, last probe answer) consistently.
func (s *shard) snapshotHealth() (bool, int, client.Health) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.healthy, s.fails, s.last
}

// snapshotLastErr returns the most recent transport failure, or "".
func (s *shard) snapshotLastErr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastErr
}

// noteSuccess records a successful shard interaction: the failure
// streak resets and an ejected shard is re-admitted. Re-admission on
// the request path is deliberate — a shard that answers is healthy, no
// matter what the prober last thought. d > 0 also feeds the read-
// latency histogram behind adaptive hedging. A nil probe answer leaves
// the last one in place.
func (s *shard) noteSuccess(probe *client.Health, d time.Duration) (readmitted bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	readmitted = !s.healthy
	s.healthy = true
	s.fails = 0
	s.lastErr = ""
	if probe != nil {
		s.last = *probe
	}
	if d > 0 {
		s.hist.RecordDuration(d)
	}
	return readmitted
}

// noteFailure records a failed interaction; after ejectAfter
// consecutive failures the shard is ejected. Reports whether this call
// crossed the threshold.
func (s *shard) noteFailure(ejectAfter int, err error) (ejected bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.fails++
	if err != nil {
		s.lastErr = err.Error()
	}
	if s.healthy && s.fails >= ejectAfter {
		s.healthy = false
		s.ejects.Inc()
		return true
	}
	return false
}

// hedgeDelay is how long a read fan-out waits for this shard before
// launching its backup request: the shard's observed p95 read latency,
// clamped to [min, max]. With no history yet the floor applies — the
// first requests hedge eagerly and the histogram tightens the delay as
// traffic flows.
func (s *shard) hedgeDelay(min, max time.Duration) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := min
	if s.hist.Count() >= 16 {
		d = s.hist.QuantileDuration(0.95)
	}
	if d < min {
		d = min
	}
	if d > max {
		d = max
	}
	return d
}

// hedgeObs counts hedging outcomes for the gateway's /metrics: fired =
// a backup launched by the timer, won = that backup answered first,
// wasted = the primary answered first anyway. Retry backups launched
// because the primary failed outright are not hedges and count nowhere.
// The zero value records nothing (obs counters are nil-safe).
type hedgeObs struct {
	fired, won, wasted *obs.Counter
}

// hedged runs call against a shard with tail-latency hedging: a backup
// attempt launches if the primary has not answered within delay, and
// the first response wins — the loser's context is canceled. Both
// attempts failing returns the primary's error. This trades a bounded
// amount of duplicate work (only requests slower than the shard's p95
// hedge) for a p99 that tracks the shard's median, the classic
// tail-at-scale move.
func hedged[T any](ctx context.Context, delay time.Duration, m hedgeObs, call func(context.Context) (T, error)) (T, error) {
	type outcome struct {
		v      T
		err    error
		backup bool
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	results := make(chan outcome, 2)
	attempt := func(backup bool) {
		v, err := call(cctx)
		results <- outcome{v, err, backup}
	}
	go attempt(false)
	pending, backupUp, hedgeLaunched := 1, false, false
	var firstErr error
	timer := time.NewTimer(delay)
	defer timer.Stop()
	settle := func(backupAnswered bool) {
		if !hedgeLaunched {
			return
		}
		if backupAnswered {
			m.won.Inc()
		} else {
			m.wasted.Inc()
		}
	}
	for {
		select {
		case r := <-results:
			pending--
			if r.err == nil {
				settle(r.backup)
				return r.v, nil
			}
			var apiErr *client.APIError
			if errors.As(r.err, &apiErr) {
				// an HTTP-level error is the daemon's definitive answer
				// (404 = zero matches here, 429 = refusal): it wins the
				// hedge like a success would — a retry cannot change it,
				// and waiting for a slower duplicate answer only
				// re-inflates the tail the hedge exists to cut
				settle(r.backup)
				var zero T
				return zero, r.err
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if !backupUp {
				// primary failed outright before the delay: the backup
				// doubles as the retry
				backupUp = true
				pending++
				go attempt(true)
			} else if pending == 0 {
				var zero T
				return zero, firstErr
			}
		case <-timer.C:
			if !backupUp {
				backupUp = true
				hedgeLaunched = true
				m.fired.Inc()
				pending++
				go attempt(true)
			}
		}
	}
}
