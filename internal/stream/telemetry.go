package stream

import "logparse/internal/telemetry"

// engineTelemetry holds the engine's pre-resolved metric instruments so the
// hot path never does a registry lookup. Every field is nil when
// Config.Telemetry is nil; all instrument methods no-op on nil receivers, so
// the disabled path costs nothing (the few sites that must compute a value
// before publishing it — ring depth, buffer depth — additionally gate on a
// nil check).
//
// Gauge encoding: stream.breaker.state is 0=closed, 1=open, 2=half-open,
// matching the breaker's internal constants.
type engineTelemetry struct {
	processed        *telemetry.Counter
	matched          *telemetry.Counter
	shed             *telemetry.Counter
	empty            *telemetry.Counter
	oversized        *telemetry.Counter
	unparsed         *telemetry.Counter
	unmatchedDropped *telemetry.Counter
	retrains         *telemetry.Counter
	retrainFailures  *telemetry.Counter
	checkpoints      *telemetry.Counter
	ckptErrors       *telemetry.Counter
	ckptBytes        *telemetry.Counter
	ckptBases        *telemetry.Counter
	ckptDeltas       *telemetry.Counter
	corruptResets    *telemetry.Counter
	dirsyncErrors    *telemetry.Counter
	transitions      *telemetry.Counter
	walFailures      *telemetry.Counter
	walTruncErrors   *telemetry.Counter
	storeFailures    *telemetry.Counter

	ringDepth         *telemetry.Gauge
	unmatchedBuffered *telemetry.Gauge
	breakerState      *telemetry.Gauge
	templates         *telemetry.Gauge

	retrainSec *telemetry.Histogram
	ckptSec    *telemetry.Histogram
}

// newEngineTelemetry resolves the engine's instruments from h (all nil when
// h is nil).
func newEngineTelemetry(h *telemetry.Handle) engineTelemetry {
	return engineTelemetry{
		processed:        h.Counter("stream.processed"),
		matched:          h.Counter("stream.matched"),
		shed:             h.Counter("stream.shed"),
		empty:            h.Counter("stream.empty"),
		oversized:        h.Counter("stream.oversized"),
		unparsed:         h.Counter("stream.unparsed"),
		unmatchedDropped: h.Counter("stream.unmatched.dropped"),
		retrains:         h.Counter("stream.retrains"),
		retrainFailures:  h.Counter("stream.retrain.failures"),
		checkpoints:      h.Counter("stream.checkpoints"),
		ckptErrors:       h.Counter("stream.checkpoint.errors"),
		ckptBytes:        h.Counter("stream.checkpoint.bytes"),
		ckptBases:        h.Counter("stream.checkpoint.bases"),
		ckptDeltas:       h.Counter("stream.checkpoint.deltas"),
		corruptResets:    h.Counter("stream.checkpoint.corrupt_resets"),
		dirsyncErrors:    h.Counter("stream.checkpoint.dirsync_errors"),
		transitions:      h.Counter("stream.breaker.transitions"),
		walFailures:      h.Counter("stream.wal.failures"),
		walTruncErrors:   h.Counter("stream.wal.truncate.errors"),
		storeFailures:    h.Counter("stream.eventstore.failures"),

		ringDepth:         h.Gauge("stream.ring.depth"),
		unmatchedBuffered: h.Gauge("stream.unmatched.buffered"),
		breakerState:      h.Gauge("stream.breaker.state"),
		templates:         h.Gauge("stream.templates"),

		retrainSec: h.Histogram("stream.retrain.seconds", telemetry.DurationBuckets),
		ckptSec:    h.Histogram("stream.checkpoint.seconds", telemetry.DurationBuckets),
	}
}

// noteBreakerLocked publishes a breaker state change (transition counter +
// state gauge). Called with e.mu held, prev being the state captured before
// the breaker was driven.
func (e *Engine) noteBreakerLocked(prev int) {
	if e.tm.breakerState == nil {
		return
	}
	cur := e.breaker.state
	if cur != prev {
		e.tm.transitions.Inc()
	}
	e.tm.breakerState.Set(int64(cur))
}
