package stream

import (
	"sync"
	"testing"
	"time"
)

// numbered builds a batch of items carrying lineNo from..to.
func numbered(from, to int64) []item {
	var out []item
	for i := from; i <= to; i++ {
		out = append(out, item{lineNo: i})
	}
	return out
}

// popOne pops a single item through popBatch.
func popOne(r *ring) (item, bool) {
	var dst [1]item
	if n, ok := r.popBatch(dst[:]); !ok || n != 1 {
		return item{}, false
	}
	return dst[0], true
}

func TestRingFIFOAndDrainAfterClose(t *testing.T) {
	r := newRing(4)
	if n, stopped := r.pushAllTry(numbered(1, 3)); n != 3 || stopped {
		t.Fatalf("pushAllTry = (%d, %v) with free capacity, want (3, false)", n, stopped)
	}
	r.close()
	var dst [2]item // smaller than the backlog: order must hold across pops
	var got []int64
	for {
		n, ok := r.popBatch(dst[:])
		if !ok {
			break
		}
		for _, it := range dst[:n] {
			got = append(got, it.lineNo)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("drained %v, want [1 2 3]", got)
	}
	if _, ok := popOne(r); ok {
		t.Fatal("pop after drain of a closed ring should report done")
	}
	if n, stopped := r.pushAllTry(numbered(4, 4)); n != 0 || !stopped {
		t.Fatalf("pushAllTry on a closed ring = (%d, %v), want (0, true)", n, stopped)
	}
}

func TestRingPushTryShedsWhenFull(t *testing.T) {
	r := newRing(2)
	n, stopped := r.pushAllTry(numbered(1, 3))
	if n != 2 || stopped {
		t.Fatalf("pushAllTry of 3 into capacity 2 = (%d, %v), want (2, false)", n, stopped)
	}
	if n, _ := r.pushAllTry(numbered(4, 4)); n != 0 {
		t.Fatal("pushAllTry succeeded on a full ring")
	}
	depth, high := r.stats()
	if depth != 2 || high != 2 {
		t.Fatalf("stats = (%d, %d), want (2, 2)", depth, high)
	}
}

func TestRingPushWaitBlocksUntilPop(t *testing.T) {
	r := newRing(1)
	r.pushAllWait(numbered(1, 1))

	entered := make(chan struct{})
	done := make(chan bool)
	go func() {
		close(entered)
		n, ok := r.pushAllWait(numbered(2, 3))
		done <- ok && n == 2
	}()
	<-entered
	select {
	case <-done:
		t.Fatal("pushAllWait returned while the ring was full")
	case <-time.After(20 * time.Millisecond):
	}
	for want := int64(1); want <= 3; want++ {
		if it, ok := popOne(r); !ok || it.lineNo != want {
			t.Fatalf("pop = (%v, %v), want (%d, true)", it.lineNo, ok, want)
		}
	}
	if ok := <-done; !ok {
		t.Fatal("pushAllWait failed after slots freed up")
	}
}

func TestRingAbortWakesBlockedCallers(t *testing.T) {
	full := newRing(1) // producer blocks on a full ring
	full.pushAllWait(numbered(1, 1))
	empty := newRing(1) // consumer blocks on an empty ring

	var wg sync.WaitGroup
	results := make(chan bool, 2)
	wg.Add(2)
	go func() {
		defer wg.Done()
		n, ok := full.pushAllWait(numbered(2, 2))
		results <- ok || n != 0
	}()
	go func() {
		defer wg.Done()
		_, ok := popOne(empty)
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
	r.pushAllTry(numbered(1, 1))
	r.abort()
	if _, ok := popOne(r); ok {
		t.Fatal("pop returned an item from an aborted ring")
	}
}

func TestRingHighWaterNeverExceedsCapacity(t *testing.T) {
	r := newRing(3)
	for i := int64(0); i < 10; i++ {
		r.pushAllTry(numbered(i, i+1))
		if i%2 == 0 {
			popOne(r)
		}
	}
	if _, high := r.stats(); high > 3 {
		t.Fatalf("high-water %d exceeds capacity 3", high)
	}
}

// TestAdmitterFlush pins the one admission routine every producer uses:
// what a flush inserts, sheds and reports under each policy when the batch
// does not fit or the ring stops under it — and that every line the ring
// did not take has its arena reference returned.
func TestAdmitterFlush(t *testing.T) {
	const capacity, lines = 4, 6
	cases := []struct {
		name     string
		policy   AdmissionPolicy
		before   func(r *ring) // runs before the flush
		during   func(r *ring) // runs once the flush has filled the ring and parked
		inserted int
		shed     int
		ok       bool
	}{
		{name: "shed/overflow", policy: LoadShed, inserted: capacity, shed: lines - capacity, ok: true},
		{name: "shed/closed", policy: LoadShed, before: (*ring).close, ok: false},
		{name: "shed/aborted", policy: LoadShed, before: (*ring).abort, ok: false},
		{name: "wait/overflow-drained", policy: Backpressure, inserted: lines, ok: true,
			during: func(r *ring) { popOne(r); popOne(r) }},
		{name: "wait/closed-mid-batch", policy: Backpressure, during: (*ring).close, inserted: capacity, ok: false},
		{name: "wait/aborted-mid-batch", policy: Backpressure, during: (*ring).abort, inserted: capacity, ok: false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := &Engine{}
			r := newRing(capacity)
			adm := admitter{e: e, ring: r}
			for i := 1; i <= lines; i++ {
				adm.add(int64(i), []byte("line"), false)
			}
			src := adm.batch[0].src // six short lines share one arena
			if c.before != nil {
				c.before(r)
			}
			if c.during != nil {
				go func() {
					for d, _ := r.stats(); d < capacity; d, _ = r.stats() {
						time.Sleep(time.Millisecond)
					}
					time.Sleep(5 * time.Millisecond) // let the flush park on notFull
					c.during(r)
				}()
			}
			inserted, shed, ok := adm.flush(c.policy)
			if inserted != c.inserted || shed != c.shed || ok != c.ok {
				t.Fatalf("flush = (%d, %d, %v), want (%d, %d, %v)", inserted, shed, ok, c.inserted, c.shed, c.ok)
			}
			if len(adm.batch) != 0 {
				t.Fatalf("batch holds %d items after flush", len(adm.batch))
			}
			if e.ctrs.Shed != int64(c.shed) {
				t.Fatalf("Shed counter = %d, want %d", e.ctrs.Shed, c.shed)
			}
			// Reference balance: the writer's own reference plus one per
			// line the ring took (nothing here releases a popped item).
			if got, want := src.refs.Load(), int64(1+inserted); got != want {
				t.Fatalf("arena holds %d references, want %d (un-inserted lines must be released)", got, want)
			}
			adm.close()
		})
	}
}
