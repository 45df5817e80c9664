package main

import "time"

// clock is what the load loops need from time; tests drive them with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// loopResult is what one load loop observed. lat has one entry per request
// that succeeded; a failed request is counted and has no latency, so it can
// never improve a percentile.
type loopResult struct {
	first, last time.Time // first request sent, last request answered
	lat         []time.Duration
	late        []time.Duration // open loop: sent instant minus due instant
	attempted   int
	failed      int
}

// closedLoop issues n requests back to back on the calling goroutine: the
// next one is sent only when the previous one has been answered, as a log
// shipper that waits for each ack does. do(i) reports success.
func closedLoop(clk clock, n int, do func(i int) bool) loopResult {
	r := loopResult{lat: make([]time.Duration, 0, n), attempted: n}
	for i := 0; i < n; i++ {
		sent := clk.Now()
		if i == 0 {
			r.first = sent
		}
		ok := do(i)
		r.last = clk.Now()
		if ok {
			r.lat = append(r.lat, r.last.Sub(sent))
		} else {
			r.failed++
		}
	}
	return r
}

// openLoop issues n requests on a fixed schedule, request i being due at
// start+i*period whether or not the server kept up. Requests share the
// calling goroutine's one connection, so a stall makes later ones late;
// each latency is therefore timed from the due instant, which charges the
// stall to every request it delayed, and the lateness of each send is
// reported so a slow generator cannot pass for a slow server.
func openLoop(clk clock, start time.Time, period time.Duration, n int, do func(i int) bool) loopResult {
	r := loopResult{
		lat:       make([]time.Duration, 0, n),
		late:      make([]time.Duration, 0, n),
		attempted: n,
	}
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * period)
		if now := clk.Now(); now.Before(due) {
			clk.Sleep(due.Sub(now))
		}
		sent := clk.Now()
		if i == 0 {
			r.first = sent
		}
		r.late = append(r.late, sent.Sub(due))
		ok := do(i)
		r.last = clk.Now()
		if ok {
			r.lat = append(r.lat, r.last.Sub(due))
		} else {
			r.failed++
		}
	}
	return r
}
