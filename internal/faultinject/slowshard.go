package faultinject

import (
	"sync/atomic"
	"time"
)

// SlowShard injects deterministic per-line processing latency into one
// stream engine's consumer, modelling a tenant that parses pathologically
// slowly — a wedged disk, a degenerate retrain input, a neighbouring
// process stealing its CPU. The server tests hang one off a tenant's
// stream.Config.AfterLine and then prove that its backlog, or its recovery,
// never stalls a neighbour: requests to the slow tenant hit the per-request
// deadline while every other tenant keeps its full throughput.
//
// Injection is deterministic: the delay fires on every Every-th processed
// line (counted from 1), never on a clock or RNG. The zero value injects
// nothing.
type SlowShard struct {
	// PerLine is the latency added to each firing line.
	PerLine time.Duration
	// Every fires the delay on every n-th processed line (default 1:
	// every line).
	Every int
	// Sleep is the delay primitive (default time.Sleep); tests inject a
	// recorder to keep assertions wall-clock-free.
	Sleep func(time.Duration)

	lines atomic.Int64
	fired atomic.Int64
}

// AfterLine is the stream.Config.AfterLine-shaped hook: call it after each
// processed line to apply the configured latency.
func (s *SlowShard) AfterLine(lineNo int64) {
	n := s.lines.Add(1)
	every := int64(s.Every)
	if every <= 0 {
		every = 1
	}
	if s.PerLine <= 0 || n%every != 0 {
		return
	}
	s.fired.Add(1)
	sleep := s.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	sleep(s.PerLine)
}

// Injected reports how many delays have fired.
func (s *SlowShard) Injected() int64 { return s.fired.Load() }

// Lines reports how many lines the hook has observed.
func (s *SlowShard) Lines() int64 { return s.lines.Load() }
