package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// code around the call. Start and End are nanoseconds since the tracer was
// made; Parent indexes the span that caused this one (-1 for a root);
// Request is the batch index the call served (-1 when it serves a whole
// pass), so the spans of one batch share an identifier.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request"`
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time. A nil tracer records nothing, which is how the
// spans-off pass of the top rung runs the same code.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id for end and for children's Parent.
func (t *tracer) begin(name string, parent, request int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Request: request})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover. Children may overlap one another and may
// stick out of the parent; coverage is the union of their intervals clipped
// to the parent's.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		coveredTo := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, coveredTo), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				coveredTo = hi
			}
		}
	}
	return self
}

// layerTotals sums duration and self time per span name.
func layerTotals(spans []span) (total, self map[string]int64) {
	total, self = make(map[string]int64), make(map[string]int64)
	for i, st := range selfTimes(spans) {
		total[spans[i].Name] += spans[i].End - spans[i].Start
		self[spans[i].Name] += st
	}
	return total, self
}

// writeSpans writes the spans of one traced run to
// <dir>/trace-<workload>.json, creating dir.
func (t *tracer) writeSpans(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}
