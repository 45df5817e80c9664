package stream

import (
	"context"
	"errors"
	"sync"
	"time"
)

// ErrNotServing is returned by Push when the engine has no active Serve
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
//     (the client must replay the whole batch); progress up to the failure
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

// errReplayStopped marks a WAL replay cut short because the incarnation's
// ring stopped under it — the incarnation is ending, not the WAL failing.
var errReplayStopped = errors.New("stream: wal replay stopped")

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

// Serve runs the engine in push mode: lines arrive via Push instead of
// being pulled from Config.Open, and the stream ends when Stop is called
// (drain every admitted line, write the final checkpoint, return nil) or
// when ctx ends (the crash model: no checkpoint, everything after the last
// one is deliberately forgotten).
//
// The determinism contract matches Run: line numbers are assigned in push
// order, so as long as nothing is shed, a client that replays the same
// lines in the same order converges a resumed engine to the digest of an
// uninterrupted one.
func (e *Engine) Serve(ctx context.Context) error {
	e.mu.Lock()
	if e.running {
		e.mu.Unlock()
		return ErrAlreadyRunning
	}
	e.running = true
	e.serveEnded = false
	r := newRing(e.cfg.RingCapacity)
	e.ring = r
	start := e.offset
	e.mu.Unlock()

	var replayWG sync.WaitGroup
	if e.wal != nil {
		// With a WAL, push-ring publication is deferred to the replay
		// goroutine: every surviving WAL record beyond the checkpoint is
		// re-admitted first (the consumer below drains it concurrently),
		// and only then do new pushes get in — so recovered lines keep
		// their original positions ahead of new traffic. Until
		// publication, Push returns ErrNotServing and WaitServing waits.
		replayWG.Add(1)
		go func() {
			defer replayWG.Done()
			e.replayWAL(r, start)
		}()
	} else {
		e.pushMu.Lock()
		e.pushRing = r
		e.pushSeq = 0
		e.pushSkip = start
		e.pushMu.Unlock()
	}

	defer func() {
		// Abort BEFORE taking pushMu: a pusher blocked mid-batch in
		// pushWait is holding pushMu, and after a panic unwound the
		// consumer nobody is left to free a ring slot — the abort is what
		// wakes it to release the lock. (Locking first deadlocks the
		// unwind against the blocked pusher.) The abort also stops a
		// replay still in flight; waiting for its goroutine before
		// clearing pushRing keeps a late publication from leaking a dead
		// incarnation's ring.
		r.abort()
		replayWG.Wait()
		e.pushMu.Lock()
		e.pushRing = nil
		e.pushMu.Unlock()
		e.mu.Lock()
		e.running = false
		e.serveEnded = true
		e.mu.Unlock()
	}()

	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			r.abort()
		case <-stop:
		}
	}()

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
// larger than the ring still replays under bounded memory.
func (e *Engine) replayWAL(r *ring, start int64) {
	var lw lineWriter
	defer lw.close()
	top := start
	if last := int64(e.wal.LastSeq()); last > top {
		top = last
	}
	var admitted int64
	_, err := e.wal.Replay(func(seq uint64, payload []byte) error {
		if int64(seq) <= start {
			return nil // the checkpoint already covers it
		}
		data, src := lw.add(payload)
		it := item{lineNo: int64(seq), data: data, src: src}
		if !r.pushWait(it) {
			it.release()
			return errReplayStopped
		}
		admitted++
		return nil
	})
	if err != nil {
		if !errors.Is(err, errReplayStopped) {
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
	e.walReplayed += admitted
	e.mu.Unlock()
	e.pushMu.Lock()
	if !r.stopped() {
		e.pushRing = r
		e.pushSeq = 0
		// Everything the WAL has seen is known to this incarnation:
		// processed (≤ start) or just re-admitted. Clients replaying
		// their stream from the beginning have all of it skipped.
		e.pushSkip = top
	}
	e.pushMu.Unlock()
}

// Serving reports whether a Serve loop is currently admitting pushes.
func (e *Engine) Serving() bool {
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	return e.pushRing != nil
}

// WaitServing blocks until the engine is admitting pushes or ctx ends —
// the startup handshake between whoever launched Serve in a goroutine and
// the first Push (which would otherwise race the loop's registration and
// get a spurious ErrNotServing). With a WAL, admission opens only after
// the recovery replay finishes. When the Serve call returns without ever
// (or no longer) admitting — a WAL that fails during replay, a crash
// before publication — WaitServing reports ErrNotServing instead of
// waiting out ctx, so supervisors and tenant creation never hang on a
// dead incarnation.
func (e *Engine) WaitServing(ctx context.Context) error {
	for !e.Serving() {
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
	return nil
}

// Push submits a batch of lines to a serving engine. Batches are atomic in
// order: Push holds the admission lock for the whole batch, so concurrent
// pushers interleave at batch granularity, never mid-batch. Empty lines do
// not advance the line numbering (matching the file producer), so replayed
// streams number identically.
//
// Under Backpressure a full ring blocks Push until the consumer frees a
// slot; under LoadShed the line is counted in PushResult.Shed and dropped.
// ErrNotServing means the serve loop ended mid-batch — the caller should
// retry the whole batch against the next incarnation (already-processed
// lines will be skipped).
func (e *Engine) Push(lines []string) (PushResult, error) {
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	var res PushResult
	r := e.pushRing
	if r == nil {
		return res, ErrNotServing
	}
	w := e.wal
	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		e.pushSeq++
		if e.pushSeq <= e.pushSkip {
			res.Skipped++
			continue
		}
		if len(line) > e.cfg.MaxLineBytes {
			line = line[:e.cfg.MaxLineBytes]
			e.mu.Lock()
			e.ctrs.Oversized++
			e.mu.Unlock()
			e.tm.oversized.Inc()
		}
		data, src := e.pushLW.addString(line)
		if w != nil {
			if err := w.Append(uint64(e.pushSeq), data); err != nil {
				src.release()
				return res, e.walAbort(r, err)
			}
			if err := e.cfg.WALSeam.Fire("push"); err != nil {
				src.release()
				return res, e.walAbort(r, err)
			}
		}
		it := item{lineNo: e.pushSeq, data: data, src: src}
		if e.cfg.Policy == LoadShed {
			if r.pushTry(it) {
				res.Accepted++
				continue
			}
			it.release()
			if r.stopped() {
				return res, ErrNotServing
			}
			res.Shed++
			e.mu.Lock()
			e.ctrs.Shed++
			e.mu.Unlock()
			e.tm.shed.Inc()
		} else {
			if !r.pushWait(it) {
				it.release()
				return res, ErrNotServing
			}
			res.Accepted++
		}
	}
	if w != nil {
		// The acknowledgment barrier: one fsync covers the whole batch.
		if err := w.Commit(); err != nil {
			return res, e.walAbort(r, err)
		}
	}
	return res, nil
}

// walAbort ends the serve incarnation after a write-ahead-log failure:
// pending admission items are released, the failure is recorded, the ring
// aborts (the Serve loop drains out and surfaces a *DurableError for its
// supervisor), and the pusher gets the typed error — its batch was NOT
// acknowledged and must be replayed whole against the next incarnation.
// Called with pushMu held.
func (e *Engine) walAbort(r *ring, err error) error {
	for i := range e.pushItems {
		e.pushItems[i].release()
		e.pushItems[i] = item{}
	}
	e.pushItems = e.pushItems[:0]
	e.mu.Lock()
	if e.walErr == nil {
		e.walErr = err
	}
	e.mu.Unlock()
	e.tm.walFailures.Inc()
	r.abort()
	return &DurableError{Layer: LayerWAL, Err: err}
}

// PushBatch submits a batch of raw line bytes to a serving engine — the
// allocation-disciplined sibling of Push for callers that already hold
// bytes (the HTTP batch endpoint, file shippers). Semantics are identical
// to Push: batches are atomic in order under the admission lock, empty
// lines do not advance the numbering, lines at or below the restored
// offset are skipped as replay duplicates, over-long lines are truncated
// at MaxLineBytes, and a full ring blocks (Backpressure) or sheds
// (LoadShed). Each admitted line is copied into a pooled arena at
// admission, so the caller may reuse or free the backing of lines the
// moment PushBatch returns; per-line the engine allocates nothing.
//
// ctx is consulted once at entry, never mid-batch: a batch that started
// admission runs to completion (or to ErrNotServing), because a partial,
// externally-aborted batch would leave the client unable to tell which
// lines hold sequence numbers — replaying the whole batch would then
// double-process the tail. ErrNotServing keeps Push's contract: retry the
// whole batch against the next incarnation and the processed prefix is
// skipped.
//
// With a WAL (Config.WALDir), a nil return additionally means the whole
// batch is durable: every line was appended to the log before admission
// and one group commit fsynced them all before returning. A *DurableError
// means the batch was NOT acknowledged and the incarnation is ending —
// replay the batch whole against the next one.
func (e *Engine) PushBatch(ctx context.Context, lines [][]byte) (PushResult, error) {
	if err := ctx.Err(); err != nil {
		return PushResult{}, err
	}
	e.pushMu.Lock()
	defer e.pushMu.Unlock()
	var res PushResult
	r := e.pushRing
	if r == nil {
		return res, ErrNotServing
	}
	w := e.wal
	var oversizedN int64
	var walFail error // set by flush when the "push" crash hook fires
	if e.pushItems == nil {
		e.pushItems = make([]item, 0, ingestBatch)
	}

	// flush mirrors the file producer's batched admission; it reports
	// false when the ring stopped and the push must fail with
	// ErrNotServing (or, when walFail is set, that typed failure).
	flush := func() bool {
		if w != nil && len(e.pushItems) > 0 {
			// The enumerated crash point between WAL append and ring
			// push: the batch's lines are in the WAL (possibly auto-
			// flushed to disk) but not yet admitted.
			if err := e.cfg.WALSeam.Fire("push"); err != nil {
				walFail = e.walAbort(r, err)
				return false
			}
		}
		if oversizedN > 0 {
			e.mu.Lock()
			e.ctrs.Oversized += oversizedN
			e.mu.Unlock()
			e.tm.oversized.Add(uint64(oversizedN))
			oversizedN = 0
		}
		batch := e.pushItems
		if len(batch) == 0 {
			return true
		}
		ok := true
		if e.cfg.Policy == LoadShed {
			inserted, stopped := r.pushAllTry(batch)
			res.Accepted += inserted
			for i := inserted; i < len(batch); i++ {
				batch[i].release()
			}
			if stopped {
				ok = false
			} else if shed := len(batch) - inserted; shed > 0 {
				res.Shed += shed
				e.mu.Lock()
				e.ctrs.Shed += int64(shed)
				e.mu.Unlock()
				e.tm.shed.Add(uint64(shed))
			}
		} else {
			inserted, pok := r.pushAllWait(batch)
			res.Accepted += inserted
			if !pok {
				for i := inserted; i < len(batch); i++ {
					batch[i].release()
				}
				ok = false
			}
		}
		for i := range batch {
			batch[i] = item{}
		}
		e.pushItems = batch[:0]
		return ok
	}

	for _, line := range lines {
		if len(line) == 0 {
			continue
		}
		e.pushSeq++
		if e.pushSeq <= e.pushSkip {
			res.Skipped++
			continue
		}
		if len(line) > e.cfg.MaxLineBytes {
			line = line[:e.cfg.MaxLineBytes]
			oversizedN++
		}
		data, src := e.pushLW.add(line)
		if w != nil {
			// Append-before-admit: the line reaches the WAL buffer before
			// it can reach the ring, so no admitted line is ever absent
			// from the log. Durability waits for the Commit below.
			if err := w.Append(uint64(e.pushSeq), data); err != nil {
				src.release()
				return res, e.walAbort(r, err)
			}
		}
		e.pushItems = append(e.pushItems, item{lineNo: e.pushSeq, data: data, src: src})
		if len(e.pushItems) == ingestBatch && !flush() {
			if walFail != nil {
				return res, walFail
			}
			return res, ErrNotServing
		}
	}
	if !flush() {
		if walFail != nil {
			return res, walFail
		}
		return res, ErrNotServing
	}
	if w != nil {
		// The acknowledgment barrier — group commit: one flush + fsync
		// covers every line of this batch. Only a nil return here
		// acknowledges the batch; on failure the incarnation ends and the
		// client replays the batch whole.
		if err := w.Commit(); err != nil {
			return res, e.walAbort(r, err)
		}
	}
	return res, nil
}

// Stop requests a graceful stop of the active Run or Serve: no further
// input is admitted (the file producer exits at its next push, Push
// returns ErrNotServing), every already-admitted line is drained and
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
