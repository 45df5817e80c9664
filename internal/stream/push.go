package stream

import (
	"context"
	"errors"
	"time"
)

// ErrNotServing is returned by PushBatch when the engine has no active Serve
// loop: it never started, it already drained after Stop, or its current
// incarnation crashed. The caller should back off briefly and retry (a
// supervisor may be rebuilding the engine from its checkpoint).
var ErrNotServing = errors.New("stream: engine is not serving")

// Layer names one of the durable layers under the engine.
type Layer string

const (
	LayerWAL        Layer = "write-ahead log"
	LayerEventStore Layer = "event store"
)

// DurableError reports a failure of a durable layer that ended the
// engine's current incarnation. Both layers run fail-stop — after a failed
// write or fsync the file position is unknowable — and recovery is the
// same for both: a fresh engine over the same directories, whose Open
// repairs the damage (the server's supervisor rebuilds and resumes, with a
// lifetime cap per layer). What differs is the checkpoint:
//
//   - LayerWAL: the push that observed the failure was NOT acknowledged
//     (the client must replay its stream from the beginning: the next
//     incarnation numbers pushes from there); progress up to the failure
//     is checkpointed before the error surfaces, and the next Serve
//     replays the surviving records.
//   - LayerEventStore: the engine refuses to checkpoint — a checkpoint
//     would durably cover lines whose events were lost, making the gap in
//     the event history permanent. The reopened store is aligned to the
//     restored checkpoint and replay re-emits exactly the dropped events.
type DurableError struct {
	Layer Layer
	Err   error
}

func (e *DurableError) Error() string {
	return "stream: " + string(e.Layer) + " failed: " + e.Err.Error()
}

// Unwrap exposes the underlying failure to errors.Is/As.
func (e *DurableError) Unwrap() error { return e.Err }

// PushResult reports what happened to one pushed batch, line by line.
type PushResult struct {
	// Accepted counts lines admitted into the ring for processing.
	Accepted int `json:"accepted"`
	// Skipped counts lines at or below the restored offset: replay
	// duplicates a previous incarnation already processed durably.
	// Idempotent replay is the recovery contract — after a crash, clients
	// resend their stream from the beginning (or the last acknowledged
	// offset) and the engine discards what it already knows.
	Skipped int `json:"skipped"`
	// Shed counts lines dropped because the ring was full under the
	// LoadShed policy. Shed lines are lost: by the time the client could
	// replay them the offset may have moved past their position.
	Shed int `json:"shed"`
}

// Serve runs the engine: lines arrive via PushBatch, and the stream ends
// when Stop is called (drain every admitted line, write the final
// checkpoint, return nil) or when ctx ends (the crash model: no checkpoint,
// everything after the last one is deliberately forgotten).
//
// Line numbers are assigned in push order, so as long as nothing is shed, a
// client that replays the same lines in the same order converges a resumed
// engine to the digest of an uninterrupted one.
func (e *Engine) Serve(ctx context.Context) error {
	r, start, end, err := e.begin(ctx)
	if err != nil {
		return err
	}
	defer end()
	return e.serve(ctx, r, start)
}

// serve is the body of one incarnation begin opened with ring r at the
// restored offset start: publish r for pushes (after the WAL replay, with a
// WAL), consume until it closes, and write the closing checkpoint.
func (e *Engine) serve(ctx context.Context, r *ring, start int64) error {
	if e.wal != nil {
		// With a WAL, push-ring publication is deferred to the replay
		// goroutine: every surviving WAL record beyond the checkpoint is
		// re-admitted first (the consumer below drains it concurrently),
		// and only then do new pushes get in — so recovered lines keep
		// their original positions ahead of new traffic. Until
		// publication, PushBatch returns ErrNotServing and WaitServing
		// waits.
		e.replay.Add(1)
		go func() {
			defer e.replay.Done()
			e.replayWAL(r, start)
		}()
	} else {
		e.pushMu.Lock()
		e.push.ring = r
		e.pushSeq = 0
		e.pushSkip = start
		e.pushMu.Unlock()
	}

	if err := e.consume(ctx, r); err != nil {
		return err
	}
	// A WAL failure ends the incarnation through an abort with a live
	// ctx, which drains through the nil path above. Checkpoint the
	// progress that was made (a superset of what clients saw acknowledged
	// is consistent), then surface the failure so a supervisor rebuilds
	// the engine — reopening the WAL is what repairs the damage.
	cerr := e.Checkpoint()
	e.mu.Lock()
	werr := e.walErr
	e.mu.Unlock()
	if werr != nil {
		return &DurableError{Layer: LayerWAL, Err: werr}
	}
	return cerr
}

// replayWAL re-admits the WAL tail beyond the restored checkpoint into
// the incarnation's ring, then publishes the ring for new pushes. Runs as
// Serve's recovery goroutine; the consumer drains concurrently, so a tail
// larger than the ring still replays under bounded memory. Recovered lines
// were acknowledged once and are never shed: admission is Backpressure
// whatever the configured policy.
func (e *Engine) replayWAL(r *ring, start int64) {
	adm := admitter{e: e, ring: r, policy: Backpressure}
	top := max(start, int64(e.wal.LastSeq()))
	_, err := e.wal.Replay(func(seq uint64, line []byte, oversized bool) error {
		if int64(seq) <= start {
			return nil // the checkpoint already covers it
		}
		return adm.add(int64(seq), line, oversized)
	})
	if err == nil {
		err = adm.flush()
	}
	if err != nil {
		// ErrNotServing: the ring stopped under the replay — the
		// incarnation is ending, not the WAL failing.
		if !errors.Is(err, ErrNotServing) {
			// The WAL itself failed mid-replay: end the incarnation the
			// same way a push-side WAL failure does.
			e.mu.Lock()
			if e.walErr == nil {
				e.walErr = err
			}
			e.mu.Unlock()
			e.tm.walFailures.Inc()
			r.abort()
		}
		return
	}
	e.mu.Lock()
	e.walReplayed += int64(adm.res.Accepted)
	e.mu.Unlock()
	e.pushMu.Lock()
	if !r.stopped() {
		e.push.ring = r
		e.pushSeq = 0
		// Everything the WAL has seen is known to this incarnation:
		// processed (≤ start) or just re-admitted. Clients replaying
		// their stream from the beginning have all of it skipped.
		e.pushSkip = top
	}
	e.pushMu.Unlock()
}

// WaitServing blocks until the engine is admitting pushes or ctx ends —
// the startup handshake between whoever launched Serve in a goroutine and
// the first PushBatch (which would otherwise race the loop's registration and
// get a spurious ErrNotServing). With a WAL, admission opens only after
// the recovery replay finishes. When the Serve call returns without ever
// (or no longer) admitting — a WAL that fails during replay, a crash
// before publication — WaitServing reports ErrNotServing instead of
// waiting out ctx, so supervisors and tenant creation never hang on a
// dead incarnation.
func (e *Engine) WaitServing(ctx context.Context) error {
	for {
		e.pushMu.Lock()
		serving := e.push.ring != nil
		e.pushMu.Unlock()
		if serving {
			return nil
		}
		e.mu.Lock()
		ended := e.serveEnded
		e.mu.Unlock()
		if ended {
			return ErrNotServing
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(500 * time.Microsecond):
		}
	}
}

// PushBatch submits a batch of raw line bytes to a serving engine. Batches
// are atomic in order: PushBatch holds the admission lock for the whole
// batch, so concurrent pushers interleave at batch granularity, never
// mid-batch. Empty lines do not advance the line numbering, so replayed
// streams number identically; lines at or below the restored offset are
// skipped as replay duplicates; over-long lines are truncated at
// MaxLineBytes and counted in Stats.Oversized. Under Backpressure a ring
// whose RingBytes budget is spent blocks PushBatch until the consumer frees
// room for the batch it admits next (at most ingestBatch lines and
// batchKeepBytes of them, or one longer line); under LoadShed the lines that
// do not fit are counted in PushResult.Shed and dropped. Each admitted line
// is copied into a pooled batch at admission, so the caller may reuse or
// free the backing of lines the moment PushBatch returns; per-line the
// engine allocates nothing.
//
// ctx is consulted once at entry, never mid-batch: a batch that started
// admission runs to completion (or to ErrNotServing), because a partial,
// externally-aborted batch would leave the client unable to tell which
// lines hold sequence numbers — replaying the whole batch would then
// double-process the tail. ErrNotServing means the serve loop ended
// mid-batch. The next incarnation numbers pushes from the start of the
// stream, so replay the stream from its beginning, this batch included,
// and the processed prefix is skipped; the batch resent alone would be
// numbered as the stream's first lines.
//
// With a WAL (Config.WALDir), a nil return additionally means the whole
// batch is durable: every line was appended to the log before admission
// and one group commit fsynced them all before returning. A *DurableError
// means the batch was NOT acknowledged and the incarnation is ending —
// replay the stream, this batch whole, against the next one.
func (e *Engine) PushBatch(ctx context.Context, lines [][]byte) (PushResult, error) {
	if err := ctx.Err(); err != nil {
		return PushResult{}, err
	}
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	if e.push.ring == nil {
		return PushResult{}, ErrNotServing
	}
	e.push.res = PushResult{}
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		e.pushSeq++
		if e.pushSeq <= e.pushSkip {
			e.push.res.Skipped++
			continue
		}
		// Lines at or below pushSkip all come first, so a batch's numbers
		// are consecutive, as its WAL record requires.
		if err := e.push.add(e.pushSeq, line, false); err != nil {
			return e.push.res, err
		}
	}
	if err := e.push.flush(); err != nil {
		return e.push.res, err
	}
	if e.wal != nil {
		// The acknowledgment barrier — group commit: one flush + fsync
		// covers every line of this batch. Only a nil return here
		// acknowledges the batch; on failure the incarnation ends and the
		// client replays the batch whole.
		if err := e.wal.Commit(); err != nil {
			return e.push.res, e.walAbort(err)
		}
	}
	return e.push.res, nil
}

// walAbort ends the serve incarnation after a write-ahead-log failure:
// lines not yet flushed are dropped, the failure is recorded, the ring
// aborts (the Serve loop drains out and surfaces a *DurableError for its
// supervisor), and the pusher gets the typed error — its batch was NOT
// acknowledged and must be replayed whole against the next incarnation.
// Called with pushMu held.
func (e *Engine) walAbort(err error) error {
	e.mu.Lock()
	if e.walErr == nil {
		e.walErr = err
	}
	e.mu.Unlock()
	e.tm.walFailures.Inc()
	e.push.ring.abort()
	return &DurableError{Layer: LayerWAL, Err: err}
}

// Stop requests a graceful stop of the active Serve or Feed: no further
// input is admitted (PushBatch returns ErrNotServing, and Feed stops
// reading), every already-admitted line is drained and
// processed, and the loop returns through its clean path — final
// checkpoint included. This ordering is the SIGINT guarantee: admission
// happens-before the closing checkpoint, so no admitted line is ever lost
// to a graceful shutdown. Safe to call from any goroutine at any time;
// a no-op when the engine is idle.
func (e *Engine) Stop() {
	e.mu.Lock()
	r := e.ring
	e.mu.Unlock()
	if r != nil {
		r.close()
	}
}
