package telemetry

import (
	"context"
	"sort"
	"sync"
	"time"
)

// Span is one timed stage of work, arranged in a tree: a parser's parse
// call is a root span, its tokenize/cluster/template phases are children,
// and a robust chain's per-tier attempts nest the parser's own spans
// beneath them via context propagation (ContextWith / SpanFrom).
//
// Spans are cheap (one small allocation each) and are meant for stages —
// one per pass or tier attempt — never for per-line work; per-line costs
// belong in counters and histograms. A nil *Span no-ops everywhere, so
// the disabled-telemetry path stays allocation-free.
type Span struct {
	h     *Handle
	name  string
	path  string // slash-joined ancestry, the stage-aggregation key
	root  bool
	start time.Time

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	children []*Span
}

// StartSpan begins a new root span.
func (h *Handle) StartSpan(name string) *Span {
	if h == nil {
		return nil
	}
	return &Span{h: h, name: name, path: name, root: true, start: time.Now()}
}

// Child begins a nested span under s.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{h: s.h, name: name, path: s.path + "/" + name, start: time.Now()}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End finishes the span. Ending is idempotent, and ending a parent first
// implicitly ends its still-open children at the same instant, so a span
// tree is always well-formed: every child's interval nests inside its
// parent's. Root spans are recorded into the handle's bounded ring of
// recent traces; every span feeds the cumulative per-stage timing table.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.endAt(time.Now())
}

func (s *Span) endAt(t time.Time) {
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	children := s.children
	s.mu.Unlock()
	// End open children first (outside s.mu: child End locks the handle).
	for _, c := range children {
		c.endAt(t)
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.dur = t.Sub(s.start)
	if s.dur < 0 {
		s.dur = 0
	}
	s.mu.Unlock()
	s.h.recordStage(s.path, s.dur)
	if s.root {
		s.h.recordRoot(s)
	}
}

// ctxKey keys the active span in a context.
type ctxKey struct{}

// ContextWith returns ctx carrying sp as the active span. A nil span
// returns ctx unchanged (and allocation-free), so disabled telemetry adds
// nothing to the context chain.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the active span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// SpanFrom starts a span named name as a child of the span carried by ctx
// when there is one, and as a new root on h otherwise. This is the one
// call instrumented code makes at a stage boundary: under a robust chain
// the parser's spans nest beneath the chain's tier-attempt spans; called
// directly, they stand alone. Returns nil (no-op) when both the context
// carries no span and h is nil.
func (h *Handle) SpanFrom(ctx context.Context, name string) *Span {
	if parent := FromContext(ctx); parent != nil {
		return parent.Child(name)
	}
	return h.StartSpan(name)
}

// Parse is one parse call's instruments, opened by StartParse: the
// <name>.parse span (a parser's stages are its Child spans) and the clock
// End observes into parse.<name>.seconds.
type Parse struct {
	*Span
	h     *Handle
	name  string
	start time.Time
}

// StartParse opens the instruments every parser's parse call shares: it
// counts parse.<name>.calls, adds lines (when positive; see Lines) to
// parse.<name>.lines, and opens the <name>.parse span under ctx's span (a
// root on h when ctx carries none). name is the algorithm's name in lower
// case. With a nil h and no span in ctx nothing allocates.
func (h *Handle) StartParse(ctx context.Context, name string, lines int) Parse {
	p := Parse{h: h, name: name, start: time.Now()}
	if h != nil || FromContext(ctx) != nil {
		p.Span = h.SpanFrom(ctx, name+".parse")
	}
	if h != nil {
		h.Counter("parse." + name + ".calls").Inc()
	}
	if lines > 0 {
		p.Lines(lines)
	}
	return p
}

// Lines adds n to parse.<name>.lines, for a parser that learns its line
// count only during the parse.
func (p Parse) Lines(n int) {
	if p.h != nil {
		p.h.Counter("parse." + p.name + ".lines").Add(uint64(n))
	}
}

// End ends the span and observes the parse's duration into
// parse.<name>.seconds.
func (p Parse) End() {
	p.Span.End()
	if p.h != nil {
		p.h.Histogram("parse."+p.name+".seconds", DurationBuckets).Observe(time.Since(p.start).Seconds())
	}
}

// stageAgg accumulates all finished spans sharing one path.
type stageAgg struct {
	count uint64
	total time.Duration
}

func (h *Handle) recordStage(path string, d time.Duration) {
	if h == nil {
		return
	}
	h.mu.Lock()
	agg, ok := h.stages[path]
	if !ok {
		agg = &stageAgg{}
		h.stages[path] = agg
	}
	agg.count++
	agg.total += d
	h.mu.Unlock()
}

func (h *Handle) recordRoot(s *Span) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if len(h.roots) < recentRootCap {
		h.roots = append(h.roots, s)
	} else {
		h.roots[h.next] = s
		h.next = (h.next + 1) % recentRootCap
	}
	h.mu.Unlock()
}

// StageTiming is the cumulative cost of one span path: how many times the
// stage ran and the total time spent in it (including child stages, since
// a parent span's interval covers its children).
type StageTiming struct {
	Path    string `json:"path"`
	Count   uint64 `json:"count"`
	TotalNS int64  `json:"total_ns"`
}

// StageTimings returns the cumulative per-stage table, sorted by path.
// Empty (non-nil) on a disabled handle.
func (h *Handle) StageTimings() []StageTiming {
	out := []StageTiming{}
	if h == nil {
		return out
	}
	h.mu.Lock()
	for path, agg := range h.stages {
		out = append(out, StageTiming{Path: path, Count: agg.count, TotalNS: int64(agg.total)})
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// SpanReport is one span rendered for export: its duration and children,
// with StartNS relative to the tree's root so consumers can reconstruct
// the timeline without absolute clocks.
type SpanReport struct {
	Name       string       `json:"name"`
	StartNS    int64        `json:"start_ns"`
	DurationNS int64        `json:"duration_ns"`
	Children   []SpanReport `json:"children"`
}

// RecentSpans renders the bounded ring of recently finished root span
// trees, oldest first. Empty (non-nil) on a disabled handle.
func (h *Handle) RecentSpans() []SpanReport {
	out := []SpanReport{}
	if h == nil {
		return out
	}
	h.mu.Lock()
	roots := make([]*Span, 0, len(h.roots))
	// The ring is ordered oldest-first starting at next once it wrapped.
	for i := 0; i < len(h.roots); i++ {
		roots = append(roots, h.roots[(h.next+i)%len(h.roots)])
	}
	h.mu.Unlock()
	for _, r := range roots {
		out = append(out, r.report(r.start))
	}
	return out
}

func (s *Span) report(rootStart time.Time) SpanReport {
	s.mu.Lock()
	rep := SpanReport{
		Name:       s.name,
		StartNS:    int64(s.start.Sub(rootStart)),
		DurationNS: int64(s.dur),
		Children:   []SpanReport{},
	}
	children := s.children
	s.mu.Unlock()
	for _, c := range children {
		rep.Children = append(rep.Children, c.report(rootStart))
	}
	return rep
}
