package stream

import "sync"

// ring is the admission queue between a producer (PushBatch or WAL replay,
// both through admitter.flush) and the matching consumer. It queues batches
// and bounds bytes: each queued batch is charged its line bytes plus
// batchCharge, the batch's own tables, and the charges stay within the
// budget (Config.RingBytes) — except that an empty ring admits what does
// not fit, so nothing can block progress. push blocks the producer until
// the whole batch fits (Backpressure) or queues only the prefix that fits
// (LoadShed). Every queued batch costs at least batchCharge, so
// budget/batchCharge+1 slots always suffice and the slot array never
// grows.
//
// close marks the clean end of input — Stop, or Feed at the end of its
// reader (the consumer drains what is queued); abort is the hard stop
// (queued batches are dropped, blocked producers and consumers wake
// immediately).
type ring struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	buf            []*batch // the FIFO of queued batches
	head           int
	queued         int // batches
	budget         int
	bytes          int // charged to the queued batches
	lines          int
	highWater      int // most lines ever queued
	bytesHighWater int // most bytes ever charged
	closed         bool
	aborted        bool
}

func newRing(budget int) *ring {
	r := &ring{buf: make([]*batch, budget/batchCharge+1), budget: budget}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// insertLocked queues b and wakes the consumer.
func (r *ring) insertLocked(b *batch) {
	r.buf[(r.head+r.queued)%len(r.buf)] = b
	r.queued++
	r.lines += b.n
	r.bytes += b.charge()
	r.highWater = max(r.highWater, r.lines)
	r.bytesHighWater = max(r.bytesHighWater, r.bytes)
	r.notEmpty.Signal()
}

// push queues b and reports how many of its lines that is. With wait
// (Backpressure) it blocks until all of b fits or the ring is empty;
// without (LoadShed) it queues the prefix that fits — at least one line
// into an empty ring — never blocking. With inserted > 0 the ring owns b,
// truncated to them; otherwise the caller still owns b. ok=false means the
// ring stopped (closed or aborted) first.
func (r *ring) push(b *batch, wait bool) (inserted int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for wait && !r.roomLocked(b.charge()) {
		r.notFull.Wait()
	}
	if r.aborted || r.closed {
		// close/abort broadcast notEmpty; the consumer drains without
		// needing a signal from us.
		return 0, false
	}
	n := b.n
	if !wait {
		for n > 0 && batchCharge+b.lines[n-1].End > r.budget-r.bytes {
			n-- // the prefix of b that fits
		}
		if r.queued == 0 {
			n = max(n, 1) // a line over the budget goes alone
		}
	}
	if n > 0 {
		b.truncate(n)
		r.insertLocked(b)
	}
	return n, true
}

// waitRoom blocks until the ring's budget is not spent, the ring is empty
// or it stops, so that a producer under Backpressure fills no batch the
// ring cannot take yet.
func (r *ring) waitRoom() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for !r.roomLocked(1) {
		r.notFull.Wait()
	}
}

// roomLocked reports whether a batch charged need bytes may be queued now,
// or the ring stopped.
func (r *ring) roomLocked(need int) bool {
	return r.queued == 0 || r.bytes+need <= r.budget || r.aborted || r.closed
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
	r.bytes -= b.charge()
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

// stats copies the ring's occupancy, now and at its most, into s.
func (r *ring) stats(s *Stats) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.RingDepth, s.RingHighWater = r.lines, r.highWater
	s.RingBytes, s.RingBytesHighWater = r.bytes, r.bytesHighWater
}
