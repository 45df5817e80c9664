package stream

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// numbered builds a batch of lines numbered from..to, each line's bytes
// spelling its number.
func numbered(from, to int64) *batch {
	b := new(batch)
	for i := from; i <= to; i++ {
		b.add(i, []byte(fmt.Sprint(i)), false)
	}
	return b
}

// lineNos lists b's line numbers, checking each line's bytes on the way.
func lineNos(t *testing.T, b *batch) []int64 {
	t.Helper()
	var out []int64
	for i := range b.n {
		it := b.item(i)
		if string(it.data) != fmt.Sprint(it.lineNo) {
			t.Fatalf("line %d reads %q", it.lineNo, it.data)
		}
		out = append(out, it.lineNo)
	}
	return out
}

// drainRing pops every batch until the ring reports done, listing the lines.
func drainRing(t *testing.T, r *ring) []int64 {
	t.Helper()
	var got []int64
	for {
		b, ok := r.pop()
		if !ok {
			return got
		}
		got = append(got, lineNos(t, b)...)
	}
}

// ringStats reads r's occupancy.
func ringStats(r *ring) (s Stats) {
	r.stats(&s)
	return s
}

func TestRingFIFOAndDrainAfterClose(t *testing.T) {
	r := newRing(3*batchCharge + 4) // three batches holding lines 1 to 4
	for _, b := range []*batch{numbered(1, 2), numbered(3, 3), numbered(4, 4)} {
		if n, ok := r.push(b, false); n != b.n || !ok {
			t.Fatalf("push = (%d, %v) with room, want (%d, true)", n, ok, b.n)
		}
	}
	r.close()
	if got := fmt.Sprint(drainRing(t, r)); got != "[1 2 3 4]" {
		t.Fatalf("drained %s, want [1 2 3 4]", got)
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop after drain of a closed ring should report done")
	}
	if n, ok := r.push(numbered(5, 5), false); n != 0 || ok {
		t.Fatalf("push on a closed ring = (%d, %v), want (0, false)", n, ok)
	}
	if _, ok := r.push(numbered(5, 5), true); ok {
		t.Fatal("a waiting push succeeded on a closed ring")
	}
}

func TestRingPushTryShedsWhenFull(t *testing.T) {
	r := newRing(batchCharge + 2) // one batch of two 1-byte lines
	b := numbered(1, 3)
	if n, ok := r.push(b, false); n != 2 || !ok {
		t.Fatalf("push of 3 lines into room for 2 = (%d, %v), want (2, true)", n, ok)
	}
	if n, _ := r.push(numbered(4, 4), false); n != 0 {
		t.Fatal("push succeeded on a full ring")
	}
	if s := ringStats(r); s.RingDepth != 2 || s.RingHighWater != 2 || s.RingBytes != batchCharge+2 || s.RingBytesHighWater != s.RingBytes {
		t.Fatalf("stats = %d lines (most %d), %d bytes (most %d); want 2 lines and the budget %d", s.RingDepth, s.RingHighWater, s.RingBytes, s.RingBytesHighWater, batchCharge+2)
	}
	got, ok := r.pop()
	if !ok || got != b || fmt.Sprint(lineNos(t, got)) != "[1 2]" || len(got.buf) != 2 {
		t.Fatalf("pop = %p %v, want the pushed batch cut to lines [1 2] and their 2 bytes", got, ok)
	}
}

func TestRingPushWaitBlocksUntilPop(t *testing.T) {
	r := newRing(batchCharge + 2)
	r.push(numbered(1, 1), true)

	done := make(chan bool)
	go func() {
		_, ok := r.push(numbered(2, 3), true)
		done <- ok
	}()
	select {
	case <-done:
		t.Fatal("a waiting push returned while its batch did not fit")
	case <-time.After(20 * time.Millisecond):
	}
	if depth := ringStats(r).RingDepth; depth != 1 {
		t.Fatalf("depth %d while the second batch waits, want 1: a batch is queued whole", depth)
	}
	if b, ok := r.pop(); !ok || fmt.Sprint(lineNos(t, b)) != "[1]" {
		t.Fatal("first pop is not line 1")
	}
	if ok := <-done; !ok {
		t.Fatal("a waiting push failed after the ring drained")
	}
	r.close()
	if got := fmt.Sprint(drainRing(t, r)); got != "[2 3]" {
		t.Fatalf("drained %s, want [2 3]", got)
	}
}

func TestRingAbortWakesBlockedCallers(t *testing.T) {
	full := newRing(1) // one batch over the budget fills it
	full.push(numbered(1, 1), true)
	empty := newRing(1) // consumer blocks on an empty ring

	var wg sync.WaitGroup
	results := make(chan bool, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, ok := full.push(numbered(2, 2), true)
		results <- ok
	}()
	go func() {
		defer wg.Done()
		_, ok := empty.pop()
		results <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	full.abort()
	empty.abort()
	wg.Wait()
	close(results)
	for ok := range results {
		if ok {
			t.Fatal("a blocked caller reported success after abort")
		}
	}
	if !full.stopped() {
		t.Fatal("an aborted ring does not report stopped")
	}
}

func TestRingAbortAbandonsPendingItems(t *testing.T) {
	r := newRing(4)
	r.push(numbered(1, 1), false)
	r.abort()
	if _, ok := r.pop(); ok {
		t.Fatal("pop returned a batch from an aborted ring")
	}
}

// TestRingHighWaterNeverExceedsCapacity: a LoadShed push fills the budget to the
// byte and never past it, and the high-water marks say so.
func TestRingHighWaterNeverExceedsCapacity(t *testing.T) {
	const budget = 2*batchCharge + 3
	r := newRing(budget)
	for i := int64(0); i < 10; i++ {
		r.push(numbered(i, i+1), false)
		if s := ringStats(r); s.RingBytes > budget {
			t.Fatalf("push %d: %d bytes queued over a budget of %d", i, s.RingBytes, budget)
		}
		if i%2 == 0 {
			r.pop()
		}
	}
	if s := ringStats(r); s.RingBytesHighWater != budget || s.RingHighWater != 3 {
		t.Fatalf("high-water %d bytes and %d lines, want the budget %d: lines 1 2 and 2", s.RingBytesHighWater, s.RingHighWater, budget)
	}
}

// TestAdmitterFlush pins the one admission routine every producer uses:
// what a flush inserts, sheds and reports under each policy when the batch
// does not fit or the ring stops under it — and who owns the batch after:
// the ring when it took any of it, else the pool. The ring has room for a
// queued batch of one 2-byte line and a batch of three 1-byte lines.
func TestAdmitterFlush(t *testing.T) {
	const capacity = 4 // lines in the flushed batch
	cases := []struct {
		name     string
		policy   AdmissionPolicy
		queued   int           // 2-byte lines already in the ring
		before   func(r *ring) // runs before the flush
		during   func(r *ring) // runs while the flush waits for room
		inserted int
		shed     int
		ok       bool
	}{
		{name: "shed/overflow", policy: LoadShed, queued: 1, inserted: 3, shed: 1, ok: true},
		{name: "shed/full", policy: LoadShed, queued: capacity, shed: capacity, ok: true},
		{name: "shed/closed", policy: LoadShed, before: (*ring).close, ok: false},
		{name: "shed/aborted", policy: LoadShed, before: (*ring).abort, ok: false},
		{name: "wait/overflow-drained", policy: Backpressure, queued: 1, inserted: capacity, ok: true,
			during: func(r *ring) { r.pop() }},
		{name: "wait/closed-mid-batch", policy: Backpressure, queued: 1, during: (*ring).close, ok: false},
		{name: "wait/aborted-mid-batch", policy: Backpressure, queued: 1, during: (*ring).abort, ok: false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := &Engine{cfg: Config{MaxLineBytes: 64}}
			r := newRing(2*batchCharge + 2 + 3)
			if c.queued > 0 {
				r.push(numbered(-int64(c.queued), -1), false)
			}
			adm := admitter{e: e, ring: r, policy: c.policy}
			for i := 1; i <= capacity; i++ {
				if err := adm.add(int64(i), []byte(fmt.Sprint(i)), false); err != nil || adm.res.Accepted != 0 {
					t.Fatalf("add %d = %v, %d lines flushed before the batch is full", i, err, adm.res.Accepted)
				}
			}
			b := adm.b
			if c.before != nil {
				c.before(r)
			}
			if c.during != nil {
				go func() {
					time.Sleep(10 * time.Millisecond) // let the flush park on notFull
					c.during(r)
				}()
			}
			err := adm.flush()
			inserted, shed, ok := adm.res.Accepted, adm.res.Shed, err == nil
			if inserted != c.inserted || shed != c.shed || ok != c.ok || (!ok && !errors.Is(err, ErrNotServing)) {
				t.Fatalf("flush = %v with %d inserted and %d shed, want %d and %d, ok=%v", err, inserted, shed, c.inserted, c.shed, c.ok)
			}
			if e.ctrs.Shed != int64(c.shed) {
				t.Fatalf("Shed counter = %d, want %d", e.ctrs.Shed, c.shed)
			}
			if adm.b != nil {
				t.Fatal("the admitter kept the batch it flushed")
			}
			if inserted == 0 {
				return
			}
			r.close()
			var got []int64
			for {
				qb, ok := r.pop()
				if !ok {
					break
				}
				if qb == b {
					got = lineNos(t, qb)
				}
			}
			if want := fmt.Sprint(lineNos(t, numbered(1, int64(inserted)))); fmt.Sprint(got) != want {
				t.Fatalf("the ring holds the batch as lines %v, want %s", got, want)
			}
		})
	}
}

// TestBatchRecycleDropsLargeBuffers: a batch that grew for long lines does
// not carry its buffer back into the pool.
func TestBatchRecycleDropsLargeBuffers(t *testing.T) {
	b := batchPool.Get().(*batch)
	b.add(1, make([]byte, batchKeepBytes+1), true)
	b.recycle()
	var got []*batch
	for range 8 {
		x := batchPool.Get().(*batch)
		if cap(x.buf) > batchKeepBytes || x.n != 0 {
			t.Fatalf("the pool handed out a batch with %d lines and %d bytes of buffer", x.n, cap(x.buf))
		}
		got = append(got, x)
	}
	for _, x := range got {
		x.recycle()
	}
}

// TestBatchChargeCoversItsAllocation: what the ring charges a batch beyond
// its line bytes covers what a pooled batch of one short line allocates.
func TestBatchChargeCoversItsAllocation(t *testing.T) {
	const n = 1000
	keep := make([]*batch, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range keep {
		keep[i] = new(batch)
		keep[i].add(int64(i), []byte("x"), false)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / n; per > batchCharge+1 {
		t.Fatalf("a one-line batch allocates %d bytes, charged %d", per, batchCharge+1)
	}
}

// TestAdmitterBatchesByBytes: a batch closes at ingestBatch lines and
// before the line that would take it past batchKeepBytes, so a longer line
// travels alone, in a buffer of exactly its size.
func TestAdmitterBatchesByBytes(t *testing.T) {
	const k = 100 << 10
	r := newRing(4 << 20)
	adm := admitter{e: &Engine{cfg: Config{MaxLineBytes: 1 << 20}}, ring: r, policy: LoadShed}
	sizes := []int{k, k, k, 3 * k}
	for range ingestBatch + 1 {
		sizes = append(sizes, 1)
	}
	for i, size := range sizes {
		if err := adm.add(int64(i+1), make([]byte, size), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := adm.flush(); err != nil {
		t.Fatal(err)
	}
	r.close()
	var got []string
	for b, ok := r.pop(); ok; b, ok = r.pop() {
		got = append(got, fmt.Sprintf("%d lines %d bytes", b.n, len(b.buf)))
		if len(b.buf) > batchKeepBytes && cap(b.buf) != len(b.buf) {
			t.Errorf("a %d-byte line travels in a buffer of %d", len(b.buf), cap(b.buf))
		}
	}
	want := fmt.Sprintf("[2 lines %d bytes 1 lines %d bytes 1 lines %d bytes 64 lines 64 bytes 1 lines 1 bytes]", 2*k, k, 3*k)
	if fmt.Sprint(got) != want {
		t.Fatalf("batches %v, want %s", got, want)
	}
}
