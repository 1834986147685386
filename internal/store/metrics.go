package store

import (
	"logr/internal/obs"
	"logr/internal/wal"
)

// durableMetrics holds the durable store's telemetry handles. The zero
// value records nothing (obs methods are no-ops on nil handles), so an
// uninstrumented store pays only a nil-field method call per site; every
// record site is an atomic bump or striped histogram record, keeping the
// //logr:noalloc ingest pins green with instrumentation enabled.
type durableMetrics struct {
	wal               *wal.Metrics   // handed to every wal.Log the store opens
	barrierWait       *obs.Histogram // slow-path barrier waits
	appliedEntries    *obs.Counter   // entries drained by the applier
	sealSeconds       *obs.Histogram // each seal's sub-log cut
	checkpoints       *obs.Counter   // checkpoints taken
	checkpointBytes   *obs.Counter   // checkpoint bytes written: head + admission-log frame
	checkpointSeconds *obs.Histogram // commit-stage stall per checkpoint
	ioRetries         *obs.Counter   // persistence retries after transient faults
	degradeEvents     *obs.Counter   // transitions into degraded read-only mode
}

// newDurableMetrics resolves the store metric series on reg; nil reg
// yields a fully no-op set.
func newDurableMetrics(reg *obs.Registry) *durableMetrics {
	if reg == nil {
		return &durableMetrics{}
	}
	return &durableMetrics{
		wal:               wal.NewMetrics(reg),
		barrierWait:       reg.Histogram("logr_barrier_wait_seconds", "Time read barriers spent waiting for the applier (slow path only; caught-up barriers record nothing)."),
		appliedEntries:    reg.Counter("logr_applied_entries_total", "Log entries drained from the apply queue into the in-memory store."),
		sealSeconds:       reg.Histogram("logr_seal_summary_seconds", "Time each seal took to cut its segment's sub-log (a seal clusters nothing); the count is the number of seals."),
		checkpoints:       reg.Counter("logr_checkpoints_total", "Checkpoints taken (manual and automatic)."),
		checkpointBytes:   reg.Counter("logr_checkpoint_bytes_total", "Checkpoint bytes written: the rewritten head plus the frame appended to the admission log."),
		checkpointSeconds: reg.Histogram("logr_checkpoint_seconds", "Time a completed checkpoint held the commit-stage sequencing lock (applier drain, encode, fsyncs, WAL rotation)."),
		ioRetries:         reg.Counter("logr_store_io_retries_total", "Transient-fault retries on the background persistence paths."),
		degradeEvents:     reg.Counter("logr_store_degraded_total", "Transitions into degraded read-only mode."),
	}
}

// registerGauges exposes the store's sampled state (queue depth, lag,
// WAL/checkpoint offsets, degraded flag) as scrape-time gauges. GaugeFunc
// re-registration replaces the callback, so reopening a store directory
// against the same registry re-binds cleanly.
func (d *Durable) registerGauges(reg *obs.Registry) {
	// the queue and lag gauges read Lag, the same snapshot /stats serves
	reg.GaugeFunc("logr_apply_queue_depth", "Apply-queue depth, in ingest windows.",
		func() float64 { return float64(d.Lag().QueuedBatches) })
	reg.GaugeFunc("logr_apply_queue_cap", "Apply-queue capacity, in ingest windows.",
		func() float64 { return float64(d.Lag().QueueCap) })
	reg.GaugeFunc("logr_apply_queued_entries", "Log entries acknowledged but not yet applied.",
		func() float64 { return float64(d.Lag().QueuedEntries) })
	reg.GaugeFunc("logr_ingest_lag_bytes", "WAL bytes acknowledged but not yet applied (acked offset minus applied offset).",
		func() float64 { return float64(d.Lag().LagBytes) })
	// the WAL, checkpoint and degraded gauges read Durability, the same
	// snapshot /stats serves (a poisoned WAL reads as degraded on both)
	reg.GaugeFunc("logr_wal_size_bytes", "WAL tail length: the replay cost of the next recovery.",
		func() float64 { return float64(d.Durability().WalBytes) })
	reg.GaugeFunc("logr_checkpoint_offset_bytes", "WAL offset covered by the latest checkpoint.",
		func() float64 { return float64(d.Durability().CheckpointOffset) })
	reg.GaugeFunc("logr_store_degraded", "1 while the store is in degraded read-only mode, else 0.",
		func() float64 {
			if d.Durability().Degraded {
				return 1
			}
			return 0
		})
}
