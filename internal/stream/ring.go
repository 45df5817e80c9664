package stream

import "sync"

// item is one admitted source line: its 1-based line number in the source
// (empty lines excluded) and its raw content. data points into the pooled
// arena src holds a reference on (or into a dedicated allocation when src
// is nil); whoever consumes the item calls release when done with data.
// oversized marks a line truncated at MaxLineBytes; it is counted when the
// line is processed, so the counter moves with the checkpointed offset.
type item struct {
	lineNo    int64
	data      []byte
	src       *arena
	oversized bool
}

// release returns the item's share of its arena to the pool.
func (it item) release() { it.src.release() }

// ring is the fixed-capacity admission queue between a producer (PushBatch
// or WAL replay, both through admitter.flush) and the matching consumer.
// Its capacity is the engine's memory bound on in-flight lines: pushAllWait
// blocks the producer (Backpressure) and pushAllTry refuses what does not
// fit (LoadShed); neither ever grows the buffer.
//
// close marks the clean end of input — Stop, or Feed at the end of its
// reader (the consumer drains what is buffered); abort is the hard stop (pending items are abandoned, blocked
// producers and consumers wake immediately).
type ring struct {
	mu       sync.Mutex
	notFull  sync.Cond
	notEmpty sync.Cond

	buf       []item
	head      int
	count     int
	highWater int
	closed    bool
	aborted   bool
}

func newRing(capacity int) *ring {
	r := &ring{buf: make([]item, capacity)}
	r.notFull.L = &r.mu
	r.notEmpty.L = &r.mu
	return r
}

// insertLocked places the item; the caller signals notEmpty once per batch
// — per-item signalling is a futex syscall each time the consumer sleeps,
// and amortising it is a measurable share of the batch path's win.
func (r *ring) insertLocked(it item) {
	r.buf[(r.head+r.count)%len(r.buf)] = it
	r.count++
	if r.count > r.highWater {
		r.highWater = r.count
	}
}

// pushAllWait inserts items in order, blocking whenever the ring is full.
// It returns how many were inserted and ok=false when the ring stopped
// (closed or aborted) before the batch finished — the caller still owns
// (and must release) items[inserted:].
func (r *ring) pushAllWait(items []item) (inserted int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, it := range items {
		if r.count == len(r.buf) && !r.aborted && !r.closed {
			// Wake the consumer to drain what this batch inserted so far
			// before sleeping — without this a batch larger than the free
			// space would fill the ring and wait with the consumer still
			// parked on notEmpty.
			r.notEmpty.Signal()
			for r.count == len(r.buf) && !r.aborted && !r.closed {
				r.notFull.Wait()
			}
		}
		if r.aborted || r.closed {
			// close/abort broadcast notEmpty; the consumer drains without
			// needing a signal from us.
			return inserted, false
		}
		r.insertLocked(it)
		inserted++
	}
	if inserted > 0 {
		r.notEmpty.Signal()
	}
	return inserted, true
}

// pushAllTry inserts items in order until the ring is full, never blocking.
// stopped=true means the ring accepts no further input (the caller exits
// rather than counting the remainder as shed); otherwise items[inserted:]
// were shed and remain owned by the caller.
func (r *ring) pushAllTry(items []item) (inserted int, stopped bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.aborted || r.closed {
		return 0, true
	}
	for _, it := range items {
		if r.count == len(r.buf) {
			break
		}
		r.insertLocked(it)
		inserted++
	}
	if inserted > 0 {
		r.notEmpty.Signal()
	}
	return inserted, false
}

// popBatch removes up to len(dst) oldest items into dst, blocking while the
// ring is empty and still open. It returns at least one item whenever any
// is available rather than waiting to fill dst — batching amortises the
// lock, it must not add latency. ok=false means no more items will ever
// come (aborted, or closed and fully drained).
func (r *ring) popBatch(dst []item) (n int, ok bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for r.count == 0 && !r.closed && !r.aborted {
		r.notEmpty.Wait()
	}
	if r.aborted || r.count == 0 {
		return 0, false
	}
	for n < len(dst) && r.count > 0 {
		dst[n] = r.buf[r.head]
		r.buf[r.head] = item{} // release the line for GC
		r.head = (r.head + 1) % len(r.buf)
		r.count--
		n++
	}
	r.notFull.Broadcast()
	return n, true
}

// close marks the end of the source; buffered items remain poppable.
func (r *ring) close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	r.notFull.Broadcast()
	r.notEmpty.Broadcast()
}

// abort hard-stops the ring: pending items are abandoned and every blocked
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

// stats reports current depth and the high-water mark.
func (r *ring) stats() (depth, highWater int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count, r.highWater
}
