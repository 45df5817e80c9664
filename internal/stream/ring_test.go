package stream

import (
	"fmt"
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

func TestRingFIFOAndDrainAfterClose(t *testing.T) {
	r := newRing(4)
	for _, b := range []*batch{numbered(1, 2), numbered(3, 3), numbered(4, 4)} {
		if n, stopped := r.pushTry(b); n != b.n || stopped {
			t.Fatalf("pushTry = (%d, %v) with free capacity, want (%d, false)", n, stopped, b.n)
		}
	}
	r.close()
	if got := fmt.Sprint(drainRing(t, r)); got != "[1 2 3 4]" {
		t.Fatalf("drained %s, want [1 2 3 4]", got)
	}
	if _, ok := r.pop(); ok {
		t.Fatal("pop after drain of a closed ring should report done")
	}
	if n, stopped := r.pushTry(numbered(5, 5)); n != 0 || !stopped {
		t.Fatalf("pushTry on a closed ring = (%d, %v), want (0, true)", n, stopped)
	}
	if r.pushWait(numbered(5, 5)) {
		t.Fatal("pushWait succeeded on a closed ring")
	}
}

func TestRingPushTryShedsWhenFull(t *testing.T) {
	r := newRing(2)
	b := numbered(1, 3)
	if n, stopped := r.pushTry(b); n != 2 || stopped {
		t.Fatalf("pushTry of 3 into capacity 2 = (%d, %v), want (2, false)", n, stopped)
	}
	if n, _ := r.pushTry(numbered(4, 4)); n != 0 {
		t.Fatal("pushTry succeeded on a full ring")
	}
	if depth, high := r.stats(); depth != 2 || high != 2 {
		t.Fatalf("stats = (%d, %d), want (2, 2)", depth, high)
	}
	got, ok := r.pop()
	if !ok || got != b || fmt.Sprint(lineNos(t, got)) != "[1 2]" || len(got.buf) != 2 {
		t.Fatalf("pop = %p %v, want the pushed batch cut to lines [1 2] and their 2 bytes", got, ok)
	}
}

func TestRingPushWaitBlocksUntilPop(t *testing.T) {
	r := newRing(2)
	r.pushWait(numbered(1, 1))

	done := make(chan bool)
	go func() { done <- r.pushWait(numbered(2, 3)) }()
	select {
	case <-done:
		t.Fatal("pushWait returned while its batch did not fit")
	case <-time.After(20 * time.Millisecond):
	}
	if depth, _ := r.stats(); depth != 1 {
		t.Fatalf("depth %d while the second batch waits, want 1: a batch is queued whole", depth)
	}
	if b, ok := r.pop(); !ok || fmt.Sprint(lineNos(t, b)) != "[1]" {
		t.Fatal("first pop is not line 1")
	}
	if ok := <-done; !ok {
		t.Fatal("pushWait failed after the ring drained")
	}
	r.close()
	if got := fmt.Sprint(drainRing(t, r)); got != "[2 3]" {
		t.Fatalf("drained %s, want [2 3]", got)
	}
}

func TestRingAbortWakesBlockedCallers(t *testing.T) {
	full := newRing(1) // producer blocks on a full ring
	full.pushWait(numbered(1, 1))
	empty := newRing(1) // consumer blocks on an empty ring

	var wg sync.WaitGroup
	results := make(chan bool, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		results <- full.pushWait(numbered(2, 2))
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
	r.pushTry(numbered(1, 1))
	r.abort()
	if _, ok := r.pop(); ok {
		t.Fatal("pop returned a batch from an aborted ring")
	}
}

func TestRingHighWaterNeverExceedsCapacity(t *testing.T) {
	r := newRing(3)
	for i := int64(0); i < 10; i++ {
		r.pushTry(numbered(i, i+1))
		if i%2 == 0 {
			r.pop()
		}
	}
	if _, high := r.stats(); high != 3 {
		t.Fatalf("high-water %d, want the capacity 3", high)
	}
}

// TestAdmitterFlush pins the one admission routine every producer uses:
// what a flush inserts, sheds and reports under each policy when the batch
// does not fit or the ring stops under it — and who owns the batch after:
// the ring when it took any of it, else the admitter, emptied for reuse.
func TestAdmitterFlush(t *testing.T) {
	const capacity = 4
	cases := []struct {
		name     string
		policy   AdmissionPolicy
		queued   int           // lines already in the ring
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
			r := newRing(capacity)
			if c.queued > 0 {
				r.pushTry(numbered(-int64(c.queued), -1))
			}
			adm := admitter{e: e, ring: r}
			for i := 1; i <= capacity; i++ {
				if full := adm.add(int64(i), []byte(fmt.Sprint(i)), false); full != (i == capacity) {
					t.Fatalf("add %d reports full=%v with a ring of %d", i, full, capacity)
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
			inserted, shed, ok := adm.flush(c.policy)
			if inserted != c.inserted || shed != c.shed || ok != c.ok {
				t.Fatalf("flush = (%d, %d, %v), want (%d, %d, %v)", inserted, shed, ok, c.inserted, c.shed, c.ok)
			}
			if e.ctrs.Shed != int64(c.shed) {
				t.Fatalf("Shed counter = %d, want %d", e.ctrs.Shed, c.shed)
			}
			if inserted == 0 {
				if adm.b != b || b.n != 0 || len(b.buf) != 0 {
					t.Fatalf("a batch the ring did not take is not back with the admitter, empty (holder %p, batch %p with %d lines)", adm.b, b, b.n)
				}
				return
			}
			if adm.b != nil {
				t.Fatal("the admitter kept the batch the ring took")
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
