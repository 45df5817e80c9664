package stream

import (
	"sync"
	"sync/atomic"
)

// arenaSize is the capacity of one pooled line arena. 64 KiB holds several
// hundred typical log lines, so the admission path acquires the pool lock
// once per hundreds of lines instead of allocating per line.
const arenaSize = 64 * 1024

// arena is one pooled byte buffer shared by many in-flight lines. Each line
// copied into it holds a reference; the writer that fills it holds one more.
// When the last reference is released the arena returns to the pool, so the
// steady-state ingest path recycles a handful of buffers instead of leaving
// one []byte per line for the garbage collector — the difference between
// ~100k and <1k allocs/op on BenchmarkStreamIngest.
type arena struct {
	buf  []byte
	refs atomic.Int64
}

var arenaPool = sync.Pool{
	New: func() any { return &arena{buf: make([]byte, 0, arenaSize)} },
}

// release drops one reference; the last one returns the arena to the pool.
// Nil-safe: lines too large for an arena carry a dedicated allocation and a
// nil arena.
func (a *arena) release() {
	if a == nil {
		return
	}
	if a.refs.Add(-1) == 0 {
		a.buf = a.buf[:0]
		arenaPool.Put(a)
	}
}

// lineWriter copies admitted lines into pooled arenas, handing each caller
// a stable subslice plus the arena that owns it. Not safe for concurrent
// use — each admitter owns its own writer.
type lineWriter struct {
	cur *arena
}

// grab ensures the current arena has room for n more bytes, swapping in a
// fresh pooled arena when it does not.
func (w *lineWriter) grab(n int) *arena {
	if w.cur == nil || cap(w.cur.buf)-len(w.cur.buf) < n {
		w.cur.release() // drop the writer's reference (nil-safe)
		w.cur = arenaPool.Get().(*arena)
		w.cur.refs.Store(1) // the writer's own reference
	}
	return w.cur
}

// add copies line into pooled storage and returns the stable copy plus the
// arena holding a reference for it. Lines larger than half an arena get a
// dedicated allocation (nil arena) rather than monopolising pooled buffers.
func (w *lineWriter) add(line []byte) ([]byte, *arena) {
	if len(line) > arenaSize/2 {
		return append([]byte(nil), line...), nil
	}
	a := w.grab(len(line))
	start := len(a.buf)
	a.buf = append(a.buf, line...)
	a.refs.Add(1)
	return a.buf[start:len(a.buf):len(a.buf)], a
}

// close releases the writer's reference on its current arena.
func (w *lineWriter) close() {
	w.cur.release()
	w.cur = nil
}
