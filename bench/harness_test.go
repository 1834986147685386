package main

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"logr"
)

func newTestRun(t *testing.T) *run {
	return &run{name: t.Name(), seed: 1, work: t.TempDir(), e2e: map[string]metric{}, layers: map[string]metric{}}
}

// An open loop times a request from when it was due: three writes due at
// 0, 1 and 2 ms from two shippers that each take 40 ms make the third wait
// for a shipper, and that wait is part of its latency and is reported as
// the generator's lateness. Reads are independent and are not held up.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	r := newTestRun(t)
	const hold = 40 * time.Millisecond
	events := []event{
		{due: 0, kind: opIngest},
		{due: time.Millisecond, kind: opIngest},
		{due: 2 * time.Millisecond, kind: opIngest},
		{due: 3 * time.Millisecond, kind: opEstimate},
	}
	res := openLoop(r, events, func(ev event) (int64, int, error) {
		if ev.kind == opIngest {
			time.Sleep(hold)
			return batchEntries, 0, nil
		}
		return 0, 0, nil
	})
	if len(res.latMs[opIngest]) != 3 || len(res.latMs[opEstimate]) != 1 || res.acked != 3*batchEntries {
		t.Fatalf("completed %d writes, %d reads, %d queries; want 3, 1, %d", len(res.latMs[opIngest]), len(res.latMs[opEstimate]), res.acked, 3*batchEntries)
	}
	lat := sortedCopy(res.latMs[opIngest])
	holdMs := float64(hold) / 1e6
	if lat[0] < holdMs || lat[0] > 2*holdMs-5 {
		t.Errorf("the first write took %.1f ms, want about %.0f", lat[0], holdMs)
	}
	if lat[2] < 2*holdMs-2 {
		t.Errorf("the write that waited for a shipper took %.1f ms from its due time, want at least %.0f", lat[2], 2*holdMs-2)
	}
	if late := sortedCopy(res.lateMs); late[len(late)-1] < holdMs-3 {
		t.Errorf("largest lateness %.1f ms, want the %.0f ms the third write waited", late[len(late)-1], holdMs-2)
	}
	if est := res.latMs[opEstimate][0]; est > holdMs/2 {
		t.Errorf("the read took %.1f ms: it waited behind the writes", est)
	}
	if r.attempted.Load() != 4 || r.failed.Load() != 0 {
		t.Errorf("attempted %d, failed %d; want 4, 0", r.attempted.Load(), r.failed.Load())
	}
}

func TestOpenLoopCountsFailures(t *testing.T) {
	r := newTestRun(t)
	res := openLoop(r, []event{{kind: opCount}, {kind: opCount}}, func(ev event) (int64, int, error) {
		return 0, 0, errors.New("refused")
	})
	if r.attempted.Load() != 2 || r.failed.Load() != 2 || len(res.latMs[opCount]) != 0 {
		t.Errorf("attempted %d, failed %d, %d latencies; a refused request is a failed one and has no latency", r.attempted.Load(), r.failed.Load(), len(res.latMs[opCount]))
	}
}

// A closed loop offers a lane's next batch only once the last one is
// acknowledged.
func TestClosedLoopWaitsForTheAck(t *testing.T) {
	r := newTestRun(t)
	var inFlight, most, total atomic.Int64
	send := func(ctx context.Context, entries []logr.Entry) (int, error) {
		if n := inFlight.Add(1); n > most.Load() {
			most.Store(n)
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
		return int(total.Add(int64(len(entries)))), nil
	}
	stmts := appLog()
	res := closedLoop(r, 50*time.Millisecond, []ingestFunc{send, send}, func(lane int) []logr.Entry {
		return repeatBatch(stmts, int64(lane), nil)
	})
	if most.Load() > 2 || res.acked == 0 || res.acked != total.Load() || int64(res.maxTotal) != res.acked {
		t.Errorf("%d in flight at once from 2 lanes; acknowledged %d, server saw %d, last total %d", most.Load(), res.acked, total.Load(), res.maxTotal)
	}
	if int64(len(res.ackMs))*batchEntries != res.acked {
		t.Errorf("%d latencies for %d queries in batches of %d", len(res.ackMs), res.acked, batchEntries)
	}
}
