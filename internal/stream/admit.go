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

// batchKeepBytes caps the buffer a recycled batch keeps: a batch that grew
// past it for long lines gives its buffer to the garbage collector, so the
// pool never holds multi-MiB buffers.
const batchKeepBytes = 256 << 10

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

// truncate keeps the first n ≥ 1 lines.
func (b *batch) truncate(n int) {
	b.n = n
	b.buf = b.buf[:b.lines[n-1].End]
}

func (b *batch) reset() {
	b.n = 0
	b.buf = b.buf[:0]
}

// recycle returns b to the pool.
func (b *batch) recycle() {
	if cap(b.buf) > batchKeepBytes {
		b.buf = nil
	}
	b.reset()
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
// hands the batch to the ring under a policy. Not safe for concurrent use.
type admitter struct {
	e    *Engine
	ring *ring
	b    *batch // the batch being filled; nil once the ring took it
}

// add copies line into the batch, reporting whether the batch is now due
// for a flush: it holds ingestBatch lines, or as many as the ring does, or
// one more line of MaxLineBytes could take its WAL record past
// wal.MaxRecordBytes — so the push path never logs a record the WAL
// refuses, whatever the lines' sizes. A line longer than MaxLineBytes is
// truncated to it and marked oversized — decided here, for a pushed line
// and a replayed WAL line alike; a replayed line keeps the mark its record
// carries.
func (a *admitter) add(lineNo int64, line []byte, oversized bool) (full bool) {
	limit := a.e.cfg.MaxLineBytes
	if len(line) > limit {
		line, oversized = line[:limit], true
	}
	if a.b == nil {
		a.b = batchPool.Get().(*batch)
	}
	a.b.add(lineNo, line, oversized)
	return a.b.n == min(ingestBatch, len(a.ring.buf)) ||
		len(a.b.buf)+limit+wal.BatchOverhead(a.b.n+1) > wal.MaxRecordBytes
}

// pending reports whether lines wait for a flush.
func (a *admitter) pending() bool { return a.b != nil && a.b.n > 0 }

// flush hands the batch to the ring: Backpressure blocks until all of it
// fits, LoadShed queues the prefix that fits and drops the rest, counted in
// Shed. ok=false means the ring stopped (closed or aborted) first; nothing
// is admitted or shed and the producer must stop. A batch the ring did not
// take stays with the admitter, emptied.
func (a *admitter) flush(policy AdmissionPolicy) (inserted, shed int, ok bool) {
	b := a.b
	if !a.pending() {
		return 0, 0, true
	}
	n := b.n
	if policy == LoadShed {
		var stopped bool
		inserted, stopped = a.ring.pushTry(b)
		ok = !stopped
		if ok {
			shed = n - inserted
		}
	} else if ok = a.ring.pushWait(b); ok {
		inserted = n
	}
	if inserted > 0 {
		a.b = nil // the ring's now
	} else {
		b.reset()
	}
	if shed > 0 {
		a.e.mu.Lock()
		a.e.ctrs.Shed += int64(shed)
		a.e.mu.Unlock()
	}
	return inserted, shed, ok
}
