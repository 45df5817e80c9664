package stream

import (
	"sync"

	"logparse/internal/stream/wal"
)

// ingestBatch is the most lines one batch holds. Lines are admitted, queued
// and consumed a batch at a time, so ring lock, counter and pool traffic is
// paid once per batch instead of once per line. Batching never reorders
// lines or changes what is admitted — it only amortises overhead.
const ingestBatch = 64

// batchKeepBytes is the most line bytes a batch of several lines holds: a
// batch closes before the line that would take it past this, so a longer
// line travels alone, in a buffer allocated once at its size. No WAL record
// the push path writes is larger than one such batch or one MaxLineBytes
// line, and no pooled buffer grows past it (recycle drops a larger one).
const batchKeepBytes = 256 << 10

// batchCharge is what the ring charges a queued batch beyond its line
// bytes: the batch itself — 1,568 bytes of line tables, which the allocator
// rounds to its 1,792-byte size class — and a small buffer's allocation, so
// that a flood of one-line batches is charged what it costs
// (TestBatchChargeCoversItsAllocation).
const batchCharge = 2 << 10

// batch is the unit of admission: up to ingestBatch admitted lines copied
// back to back into one buffer. It has exactly one owner at a time — the
// admitter filling it, the ring queueing it, the consumer processing it —
// and the consumer returns it to batchPool, so the steady state reuses a
// few buffers instead of leaving one []byte per line for the collector.
// Handing a batch on is a pointer move; nothing is counted per line. With a
// WAL, the push path logs a batch as one record before the ring takes it,
// so line i's number is the first's plus i.
type batch struct {
	buf []byte
	// nos holds each line's 1-based number in the source (empty lines
	// excluded); lines where its bytes end in buf (they start where the
	// previous line's end) and whether it was truncated at MaxLineBytes.
	nos   [ingestBatch]int64
	lines [ingestBatch]wal.Line
	n     int
}

var batchPool = sync.Pool{New: func() any { return new(batch) }}

func (b *batch) add(lineNo int64, line []byte, oversized bool) {
	if len(line) > batchKeepBytes {
		b.buf = make([]byte, 0, len(line)) // the batch's only line
	}
	b.buf = append(b.buf, line...)
	b.nos[b.n] = lineNo
	b.lines[b.n] = wal.Line{End: len(b.buf), Oversized: oversized}
	b.n++
}

// item is line i of b, its data a view into b's buffer that is valid until
// the batch is recycled.
func (b *batch) item(i int) item {
	start := 0
	if i > 0 {
		start = b.lines[i-1].End
	}
	l := b.lines[i]
	return item{lineNo: b.nos[i], data: b.buf[start:l.End:l.End], oversized: l.Oversized}
}

// charge is what b costs the ring.
func (b *batch) charge() int { return batchCharge + len(b.buf) }

// truncate keeps the first n ≥ 1 lines.
func (b *batch) truncate(n int) {
	b.n = n
	b.buf = b.buf[:b.lines[n-1].End]
}

// recycle returns b to the pool, emptied.
func (b *batch) recycle() {
	if cap(b.buf) > batchKeepBytes {
		b.buf = nil
	}
	b.n, b.buf = 0, b.buf[:0]
	batchPool.Put(b)
}

// item is one admitted line as processLocked sees it. oversized marks a
// line truncated at MaxLineBytes; it is counted when the line is processed,
// so the counter moves with the checkpointed offset.
type item struct {
	lineNo    int64
	data      []byte
	oversized bool
}

// admitter is the one way lines get into the ring. The push path
// (PushBatch, under pushMu, and so Feed) and WAL replay each own one: add
// cuts an over-long line and copies it into the admitter's batch, flush
// logs the batch (the push path's, with a WAL) and hands it to the ring
// under the admitter's policy. Not safe for concurrent use.
type admitter struct {
	e      *Engine
	ring   *ring
	policy AdmissionPolicy
	wal    *wal.WAL // logs each batch before the ring takes it; nil in replay
	b      *batch   // the batch being filled; nil until its first line
	// res counts the lines flush admitted and shed, and the owner's
	// skipped ones, since the owner last zeroed it.
	res PushResult
}

// add copies line into the batch, flushing before the line when the batch
// has no room for it and after the line when the batch is full. Under
// Backpressure it starts no batch while the ring's budget is spent, so the
// lines in flight are the ring's plus at most one batch. A line longer than
// MaxLineBytes is truncated to it and marked oversized — decided here, for
// a pushed line and a replayed WAL line alike; a replayed line keeps the
// mark its record carries.
func (a *admitter) add(lineNo int64, line []byte, oversized bool) error {
	if limit := a.e.cfg.MaxLineBytes; len(line) > limit {
		line, oversized = line[:limit], true
	}
	if a.b != nil && len(a.b.buf)+len(line) > batchKeepBytes {
		if err := a.flush(); err != nil {
			return err
		}
	}
	if a.b == nil {
		if a.policy == Backpressure {
			a.ring.waitRoom()
		}
		a.b = batchPool.Get().(*batch)
	}
	a.b.add(lineNo, line, oversized)
	if a.b.n == ingestBatch {
		return a.flush()
	}
	return nil
}

// flush hands the batch to the ring: Backpressure blocks until all of it
// fits, LoadShed queues the prefix that fits and drops the rest, counted in
// Shed. With a WAL it first appends the batch as one record —
// append-before-admit, so no admitted line is ever absent from the log and
// shed lines are logged too; durability waits for the push's Commit — and
// a failed append ends the incarnation (walAbort). ErrNotServing means the
// ring stopped (closed or aborted) first: nothing is admitted or shed and
// the producer must stop. A batch the ring did not take goes back to the
// pool.
func (a *admitter) flush() error {
	b := a.b
	if b == nil {
		return nil
	}
	a.b = nil
	if a.wal != nil {
		if err := a.wal.AppendBatch(uint64(b.nos[0]), b.buf, b.lines[:b.n]); err != nil {
			return a.e.walAbort(err)
		}
		// The enumerated crash point between WAL append and ring push: the
		// batch's lines are in the WAL (possibly auto-flushed to disk) but
		// not yet admitted.
		if err := a.e.cfg.WALSeam.Fire("push"); err != nil {
			return a.e.walAbort(err)
		}
	}
	n := b.n
	inserted, ok := a.ring.push(b, a.policy == Backpressure)
	if inserted == 0 {
		b.recycle()
	}
	if !ok {
		return ErrNotServing
	}
	a.res.Accepted += inserted
	if shed := n - inserted; shed > 0 {
		a.res.Shed += shed
		a.e.mu.Lock()
		a.e.ctrs.Shed += int64(shed)
		a.e.mu.Unlock()
	}
	return nil
}
