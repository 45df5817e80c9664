package main

import (
	"testing"
	"time"
)

// fakeClock advances only when slept on or when a request "takes" time.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time        { return c.t }
func (c *fakeClock) Sleep(d time.Duration) { c.t = c.t.Add(d) }

const ms = time.Millisecond

func TestOpenLoopTimesFromDueInstant(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	service := []time.Duration{2 * ms, 25 * ms, 2 * ms, 2 * ms, 1 * ms}
	fail := map[int]bool{4: true}
	r := openLoop(clk, start, 10*ms, len(service), func(i int) bool {
		clk.t = clk.t.Add(service[i])
		return !fail[i]
	})
	// Request 1 stalls for 25 ms, so 2 (due at 20) is sent at 35 and 3 (due
	// at 30) at 37: their latencies count the wait, not just their 2 ms.
	wantLate := []time.Duration{0, 0, 15 * ms, 7 * ms, 0}
	wantLat := []time.Duration{2 * ms, 25 * ms, 17 * ms, 9 * ms} // request 4 failed: no latency
	if len(r.late) != len(wantLate) {
		t.Fatalf("late = %v, want %v", r.late, wantLate)
	}
	for i := range wantLate {
		if r.late[i] != wantLate[i] {
			t.Errorf("late[%d] = %v, want %v", i, r.late[i], wantLate[i])
		}
	}
	if len(r.lat) != len(wantLat) {
		t.Fatalf("lat = %v, want %v", r.lat, wantLat)
	}
	for i := range wantLat {
		if r.lat[i] != wantLat[i] {
			t.Errorf("lat[%d] = %v, want %v", i, r.lat[i], wantLat[i])
		}
	}
	if r.attempted != 5 || r.failed != 1 {
		t.Errorf("attempted %d failed %d, want 5 and 1", r.attempted, r.failed)
	}
	if !r.first.Equal(start) || !r.last.Equal(start.Add(41*ms)) {
		t.Errorf("first %v last %v, want %v and %v", r.first, r.last, start, start.Add(41*ms))
	}
}

func TestOpenLoopWaitsForALateStart(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t.Add(10 * ms)
	r := openLoop(clk, start, 5*ms, 2, func(int) bool { clk.t = clk.t.Add(ms); return true })
	if !r.first.Equal(start) || r.late[0] != 0 || r.late[1] != 0 {
		t.Errorf("first sent at %v with lateness %v, want %v on time", r.first, r.late, start)
	}
}

func TestClosedLoopTimesFromSend(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	start := clk.t
	service := []time.Duration{3 * ms, 40 * ms, 5 * ms}
	r := closedLoop(clk, len(service), func(i int) bool {
		clk.t = clk.t.Add(service[i])
		return i != 1
	})
	if len(r.lat) != 2 || r.lat[0] != 3*ms || r.lat[1] != 5*ms {
		t.Errorf("lat = %v, want [3ms 5ms] (the failed request has none)", r.lat)
	}
	if r.failed != 1 || r.attempted != 3 || len(r.late) != 0 {
		t.Errorf("failed %d attempted %d late %v, want 1, 3 and none", r.failed, r.attempted, r.late)
	}
	if !r.first.Equal(start) || !r.last.Equal(start.Add(48*ms)) {
		t.Errorf("first %v last %v", r.first, r.last)
	}
}
