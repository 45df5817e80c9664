package stream

import (
	"logparse/internal/eventstore"
)

// eventSinkFailLocked latches the first event-store failure and ends the
// incarnation: the ring aborts, the consumer drains out, and the
// Serve epilogue (or the next Checkpoint) surfaces the typed error.
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

// recordEventLocked buffers one per-line decision for the event store;
// flushEventsLocked appends the buffer. Called with e.mu held on the
// per-line hot path; when the store is off (or already failed) it is a nil
// check and nothing more.
func (e *Engine) recordEventLocked(seq int64, tmpl int32, kind eventstore.Kind) {
	if e.events == nil || e.eventsErr != nil {
		return
	}
	e.evBuf = append(e.evBuf, eventstore.Event{
		Seq:      seq,
		Time:     e.eventTime,
		Template: tmpl,
		Kind:     kind,
	})
}

// flushEventsLocked appends the buffered events to the store in one call.
// Called with e.mu held: at the end of each consumed batch, before an
// AfterLine hook and before a checkpoint's Finalize.
func (e *Engine) flushEventsLocked() {
	if len(e.evBuf) == 0 {
		return
	}
	if e.eventsErr == nil {
		if err := e.events.Append(e.evBuf...); err != nil {
			e.eventSinkFailLocked(err)
		} else {
			e.eventsAppended += int64(len(e.evBuf))
		}
	}
	e.evBuf = e.evBuf[:0]
}

// finalizeEventsLocked is the checkpoint barrier on the store side: seal
// and fsync everything appended so far. Returns the typed incarnation-
// ending error when the store has failed (now or earlier) — the caller
// must NOT save a checkpoint in that case. Called with e.mu held.
func (e *Engine) finalizeEventsLocked() error {
	if e.events == nil {
		return nil
	}
	e.flushEventsLocked()
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
