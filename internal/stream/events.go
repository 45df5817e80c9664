package stream

import (
	"logparse/internal/eventstore"
)

// eventSinkFailLocked latches the first event-store failure and ends the
// incarnation: the ring aborts, the consumer drains out, and the
// Run/Serve epilogue (or the next Checkpoint) surfaces the typed error.
// Called with e.mu held.
func (e *Engine) eventSinkFailLocked(err error) {
	if e.eventsErr == nil {
		e.eventsErr = err
	}
	e.tm.storeFailures.Inc()
	if e.ring != nil {
		e.ring.abort()
	}
}

// recordEventLocked appends one per-line decision to the event store.
// Called with e.mu held on the process hot path; when the store is off
// (or already failed) it is a nil check and nothing more.
func (e *Engine) recordEventLocked(seq int64, tmpl int32, kind eventstore.Kind) {
	if e.events == nil || e.eventsErr != nil {
		return
	}
	err := e.events.Append(eventstore.Event{
		Seq:      seq,
		Time:     e.eventTime,
		Template: tmpl,
		Kind:     kind,
	})
	if err != nil {
		e.eventSinkFailLocked(err)
		return
	}
	e.eventsAppended++
}

// finalizeEventsLocked is the checkpoint barrier on the store side: seal
// and fsync everything appended so far. Returns the typed incarnation-
// ending error when the store has failed (now or earlier) — the caller
// must NOT save a checkpoint in that case. Called with e.mu held.
func (e *Engine) finalizeEventsLocked() error {
	if e.events == nil {
		return nil
	}
	if e.eventsErr == nil {
		if err := e.events.Finalize(); err != nil {
			e.eventSinkFailLocked(err)
		}
	}
	if e.eventsErr != nil {
		return &DurableError{Layer: LayerEventStore, Err: e.eventsErr}
	}
	return nil
}
