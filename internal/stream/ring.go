package stream

import "sync"

// ring is the fixed-capacity admission queue between a producer (PushBatch
// or WAL replay, both through admitter.flush) and the matching consumer. It
// queues batches but counts lines: its capacity, in lines, is the engine's
// memory bound on in-flight lines. pushWait blocks the producer until the
// whole batch fits (Backpressure) and pushTry queues only the prefix that
// fits (LoadShed); neither ever grows the buffer. No batch holds more lines
// than the capacity (admitter.add), so every batch fits an empty ring.
//
// close marks the clean end of input — Stop, or Feed at the end of its
// reader (the consumer drains what is queued); abort is the hard stop
// (queued batches are dropped, blocked producers and consumers wake
// immediately).
type ring struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	// buf is the FIFO of queued batches. Each holds at least one line, so
	// one slot per line of capacity is enough.
	buf       []*batch
	head      int
	queued    int // batches
	lines     int
	highWater int // most lines ever queued
	closed    bool
	aborted   bool
}

func newRing(capacity int) *ring {
	r := &ring{buf: make([]*batch, capacity)}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// insertLocked queues b and wakes the consumer.
func (r *ring) insertLocked(b *batch) {
	r.buf[(r.head+r.queued)%len(r.buf)] = b
	r.queued++
	r.lines += b.n
	r.highWater = max(r.highWater, r.lines)
	r.notEmpty.Signal()
}

// pushWait queues b, blocking until all of its lines fit. ok=false means
// the ring stopped (closed or aborted) first and the caller still owns b.
func (r *ring) pushWait(b *batch) (ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.lines+b.n > len(r.buf) && !r.aborted && !r.closed {
		r.notFull.Wait()
	}
	if r.aborted || r.closed {
		// close/abort broadcast notEmpty; the consumer drains without
		// needing a signal from us.
		return false
	}
	r.insertLocked(b)
	return true
}

// pushTry queues the prefix of b that fits, never blocking, and reports how
// many lines that is. With inserted > 0 the ring owns b, truncated to them;
// otherwise the caller still owns b. stopped=true means the ring accepts no
// further input (the caller exits rather than counting the batch as shed).
func (r *ring) pushTry(b *batch) (inserted int, stopped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted || r.closed {
		return 0, true
	}
	free := len(r.buf) - r.lines
	if free == 0 {
		return 0, false
	}
	if b.n > free {
		b.truncate(free)
	}
	r.insertLocked(b)
	return b.n, false
}

// pop removes the oldest batch, blocking while the ring is empty and still
// open; the caller owns it. ok=false means no more batches will ever come
// (aborted, or closed and fully drained).
func (r *ring) pop() (b *batch, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.queued == 0 && !r.closed && !r.aborted {
		r.notEmpty.Wait()
	}
	if r.aborted || r.queued == 0 {
		return nil, false
	}
	b = r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) % len(r.buf)
	r.queued--
	r.lines -= b.n
	r.notFull.Broadcast()
	return b, true
}

// close marks the end of the source; queued batches remain poppable.
func (r *ring) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

// abort hard-stops the ring: queued batches are dropped and every blocked
// caller wakes with a failure.
func (r *ring) abort() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.aborted = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

// stopped reports whether the ring accepts no further input (closed by a
// graceful Stop or aborted by a crash-style cancellation).
func (r *ring) stopped() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.closed || r.aborted
}

// stats reports the lines queued now and the most ever queued.
func (r *ring) stats() (depth, highWater int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lines, r.highWater
}
