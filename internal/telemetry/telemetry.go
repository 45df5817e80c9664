// Package telemetry is the toolkit's zero-dependency observability layer:
// a race-safe metrics registry (monotone counters and histograms with
// fixed bucket layouts) plus lightweight trace spans with hierarchical
// stage timings. The paper's RQ2 (Fig. 2) treats each parser as one
// wall-clock number; a production ingester needs to see inside the hot
// path — which stage of IPLoM partitioning or SLCT counting dominates, how
// the stream engine's ring, breaker and retrainer behave under load.
// Follow-up benchmarks (Zhu et al., ICSE'19; Jiang et al., 2023) argue
// that efficiency results are only actionable with per-stage cost
// attribution and reproducible, regression-checked measurement — which is
// why this package ships with an invariant test suite instead of being
// bolted on.
//
// Everything hangs off a *Handle. A nil *Handle is the disabled state:
// every method no-ops, returns nil metrics whose methods also no-op, and
// the whole instrumentation path is allocation-free (locked down by
// TestDisabledTelemetryZeroAllocs). Instrumented code therefore never
// checks whether telemetry is on:
//
//	tel.Counter("stream.checkpoint.bases").Inc()   // no-op when tel == nil
//	sp := tel.SpanFrom(ctx, "robust.parse")        // nil span when disabled
//	defer sp.End()
//
// A parser's parse call opens its counters, span and duration histogram in
// one call, StartParse.
//
// Export paths: Snapshot (structured, for the -report JSON run report),
// Var (an expvar.Var for /debug/vars), and the span side: StageTimings
// (cumulative per-stage durations) and RecentSpans (a bounded ring of the
// latest finished root span trees).
package telemetry

import (
	"encoding/json"
	"expvar"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotone cumulative counter. The zero value is ready to
// use; a nil *Counter no-ops.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Counters are monotone: there is no way to subtract or reset,
// which is what the invariant suite verifies.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// DurationBuckets is the layout for latency histograms, in seconds: 100µs
// up to 60s, roughly logarithmic. Parse calls span five orders of magnitude
// across algorithms (RQ2), so the layout must too. It is a package-level
// variable only so that call sites do not allocate a fresh slice per
// observation; treat it as immutable. The registry copies the layout it is
// given, so callers passing their own slice may reuse it freely afterwards.
var DurationBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Histogram accumulates observations into fixed buckets. The bucket
// layout is immutable after creation. A nil *Histogram no-ops.
type Histogram struct {
	bounds  []float64 // strictly increasing finite upper bounds
	buckets []atomic.Uint64
	// overflow counts observations above the last bound.
	overflow atomic.Uint64
	sumBits  atomic.Uint64 // float64 bits of the running sum
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, 0, len(bounds))
	for _, b := range bounds {
		if len(bs) == 0 || b > bs[len(bs)-1] {
			bs = append(bs, b)
		}
	}
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs))}
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	if i == len(h.bounds) {
		h.overflow.Add(1)
	} else {
		h.buckets[i].Add(1)
	}
	for {
		old := h.sumBits.Load()
		nw := floatBits(floatFromBits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations, derived from the bucket
// counts so that Count == Σ buckets + overflow holds by construction.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.buckets {
		n += h.buckets[i].Load()
	}
	return n + h.overflow.Load()
}

// Sum returns the running sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return floatFromBits(h.sumBits.Load())
}

// snapshot renders the histogram's current state.
func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum:     h.Sum(),
		Buckets: make([]Bucket, len(h.bounds)),
	}
	for i, ub := range h.bounds {
		c := h.buckets[i].Load()
		s.Buckets[i] = Bucket{UpperBound: ub, Count: c}
		s.Count += c
	}
	s.Overflow = h.overflow.Load()
	s.Count += s.Overflow
	return s
}

// Registry holds named metrics. Metrics are created on first use and live
// for the registry's lifetime; looking a name up twice returns the same
// metric. Safe for concurrent use. A nil *Registry returns nil metrics.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	histograms map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it with the given bucket
// layout on first use. The layout of an existing histogram is never
// changed: the first creation wins, matching the fixed-layout contract.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Snapshot renders every registered metric. Individual reads are atomic;
// the snapshot as a whole is a best-effort cut under concurrent writers,
// but each histogram's Count always equals the sum of its bucket counts.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.snapshot()
	}
	return s
}

// Snapshot is a point-in-time rendering of a registry, and the "metrics"
// half of the -report JSON run report.
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// HistogramSnapshot is one histogram's state. Count == Σ Buckets[i].Count
// + Overflow by construction.
type HistogramSnapshot struct {
	Count    uint64   `json:"count"`
	Sum      float64  `json:"sum"`
	Buckets  []Bucket `json:"buckets"`
	Overflow uint64   `json:"overflow"`
}

// Bucket is one histogram bucket: the count of observations ≤ UpperBound
// (and above the previous bound). Bounds are finite, so the snapshot
// marshals to plain JSON numbers; observations beyond the last bound land
// in Overflow.
type Bucket struct {
	UpperBound float64 `json:"le"`
	Count      uint64  `json:"count"`
}

// Handle is the instrumentation façade: a registry plus span collection.
// Construct with New; a nil *Handle disables everything at zero cost.
type Handle struct {
	reg *Registry

	mu     sync.Mutex
	stages map[string]*stageAgg
	roots  []*Span // ring of the most recent finished root spans
	next   int     // ring write position once full
}

// recentRootCap bounds the finished-root-span ring so a long-running
// service does not accumulate traces without bound.
const recentRootCap = 64

// New creates an enabled telemetry handle.
func New() *Handle {
	return &Handle{reg: NewRegistry(), stages: make(map[string]*stageAgg)}
}

// Registry exposes the handle's metric registry (nil when disabled).
func (h *Handle) Registry() *Registry {
	if h == nil {
		return nil
	}
	return h.reg
}

// Counter returns the named counter (nil when disabled).
func (h *Handle) Counter(name string) *Counter {
	if h == nil {
		return nil
	}
	return h.reg.Counter(name)
}

// Histogram returns the named histogram (nil when disabled).
func (h *Handle) Histogram(name string, bounds []float64) *Histogram {
	if h == nil {
		return nil
	}
	return h.reg.Histogram(name, bounds)
}

// Snapshot renders the handle's metrics (empty, non-nil maps when
// disabled, so JSON consumers always see the same shape).
func (h *Handle) Snapshot() Snapshot {
	if h == nil {
		return (*Registry)(nil).Snapshot()
	}
	return h.reg.Snapshot()
}

// Var returns an expvar-compatible view of the handle: String() renders
// the metric snapshot as JSON, so the handle can be published under one
// key in /debug/vars via expvar.Publish. Works on a nil handle (renders
// the empty snapshot).
func (h *Handle) Var() expvar.Var { return expvarAdapter{h} }

type expvarAdapter struct{ h *Handle }

func (a expvarAdapter) String() string {
	b, err := json.Marshal(a.h.Snapshot())
	if err != nil {
		return "{}"
	}
	return string(b)
}

func floatBits(f float64) uint64     { return math.Float64bits(f) }
func floatFromBits(b uint64) float64 { return math.Float64frombits(b) }
