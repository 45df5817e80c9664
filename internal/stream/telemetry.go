package stream

import "logparse/internal/telemetry"

// engineTelemetry holds the engine's pre-resolved metric instruments so the
// hot path never does a registry lookup. Every field is nil when
// Config.Telemetry is nil; all instrument methods no-op on nil receivers, so
// the disabled path costs nothing.
//
// Only what Stats does not already hold is published here: a line, retrain
// or checkpoint count, a current depth or state — those are Stats fields,
// read from the engine itself, never kept twice.
type engineTelemetry struct {
	ckptBytes      *telemetry.Counter
	ckptBases      *telemetry.Counter
	ckptDeltas     *telemetry.Counter
	corruptResets  *telemetry.Counter
	dirsyncErrors  *telemetry.Counter
	transitions    *telemetry.Counter
	walFailures    *telemetry.Counter
	walTruncErrors *telemetry.Counter
	storeFailures  *telemetry.Counter

	retrainSec *telemetry.Histogram
	ckptSec    *telemetry.Histogram
}

// newEngineTelemetry resolves the engine's instruments from h (all nil when
// h is nil).
func newEngineTelemetry(h *telemetry.Handle) engineTelemetry {
	return engineTelemetry{
		ckptBytes:      h.Counter("stream.checkpoint.bytes"),
		ckptBases:      h.Counter("stream.checkpoint.bases"),
		ckptDeltas:     h.Counter("stream.checkpoint.deltas"),
		corruptResets:  h.Counter("stream.checkpoint.corrupt_resets"),
		dirsyncErrors:  h.Counter("stream.checkpoint.dirsync_errors"),
		transitions:    h.Counter("stream.breaker.transitions"),
		walFailures:    h.Counter("stream.wal.failures"),
		walTruncErrors: h.Counter("stream.wal.truncate.errors"),
		storeFailures:  h.Counter("stream.eventstore.failures"),

		retrainSec: h.Histogram("stream.retrain.seconds", telemetry.DurationBuckets),
		ckptSec:    h.Histogram("stream.checkpoint.seconds", telemetry.DurationBuckets),
	}
}

// noteBreakerLocked counts a breaker state change. Called with e.mu held,
// prev being the state captured before the breaker was driven.
func (e *Engine) noteBreakerLocked(prev int) {
	if e.breaker.state != prev {
		e.tm.transitions.Inc()
	}
}
