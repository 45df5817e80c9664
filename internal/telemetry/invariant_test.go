package telemetry

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestCounterMonotone hammers one counter from concurrent writers while a
// reader checks that every observed value is >= the previous one (counters
// expose no decrement or reset, so the sequence of reads must be monotone)
// and that the final value is exactly the number of increments.
func TestCounterMonotone(t *testing.T) {
	h := New()
	c := h.Counter("mono")
	const writers, perWriter = 8, 10000

	done := make(chan struct{})
	readerErr := make(chan error, 1)
	go func() {
		defer close(readerErr)
		var prev uint64
		for {
			v := c.Value()
			if v < prev {
				readerErr <- fmt.Errorf("counter went backwards: %d after %d", v, prev)
				return
			}
			prev = v
			select {
			case <-done:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	close(done)
	if err := <-readerErr; err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != writers*perWriter {
		t.Fatalf("counter = %d, want %d", got, writers*perWriter)
	}
	// Same counter name resolves to the same counter.
	if h.Counter("mono").Value() != c.Value() {
		t.Fatal("second lookup of the same name returned a different counter")
	}
}

// TestHistogramCountMatchesObservations verifies the histogram's core
// invariant: after N concurrent observations, Count() == N and the snapshot
// Count equals the sum of its bucket counts plus the overflow — no
// observation is lost or double-counted.
func TestHistogramCountMatchesObservations(t *testing.T) {
	h := New()
	hist := h.Histogram("obs", DurationBuckets)
	const writers, perWriter = 8, 5000

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				// Spread observations across buckets and into overflow.
				v := float64(i%200) * 0.5 // 0 .. 99.5s, beyond the 60s bound
				hist.Observe(v)
			}
		}(w)
	}
	wg.Wait()

	const want = writers * perWriter
	if got := hist.Count(); got != want {
		t.Fatalf("Count() = %d, want %d", got, want)
	}
	snap := h.Snapshot().Histograms["obs"]
	var sum uint64
	for _, b := range snap.Buckets {
		sum += b.Count
	}
	sum += snap.Overflow
	if snap.Count != sum {
		t.Fatalf("snapshot Count = %d, Σ buckets + overflow = %d", snap.Count, sum)
	}
	if snap.Count != want {
		t.Fatalf("snapshot Count = %d, want %d", snap.Count, want)
	}
	if snap.Overflow == 0 {
		t.Fatal("expected some observations beyond the last bound")
	}
	// Bucket bounds must be strictly increasing (finite layout contract).
	for i := 1; i < len(snap.Buckets); i++ {
		if snap.Buckets[i].UpperBound <= snap.Buckets[i-1].UpperBound {
			t.Fatalf("bucket bounds not strictly increasing at %d: %v", i, snap.Buckets)
		}
	}
}

// TestHistogramFirstCreationWins verifies the fixed-layout contract: looking
// up an existing histogram with a different layout returns the original.
func TestHistogramFirstCreationWins(t *testing.T) {
	h := New()
	a := h.Histogram("fixed", []float64{1, 2, 3})
	b := h.Histogram("fixed", []float64{10, 20})
	if a != b {
		t.Fatal("second lookup with different bounds returned a new histogram")
	}
	a.Observe(2.5)
	snap := h.Snapshot().Histograms["fixed"]
	if len(snap.Buckets) != 3 {
		t.Fatalf("layout changed: %d buckets, want 3", len(snap.Buckets))
	}
}

// wellFormed recursively checks one reported span tree: no negative
// durations or start offsets, and every child's interval nested inside its
// parent's.
func wellFormed(t *testing.T, sp SpanReport, parentStart, parentEnd int64) {
	t.Helper()
	if sp.DurationNS < 0 {
		t.Fatalf("span %q has negative duration %d", sp.Name, sp.DurationNS)
	}
	if sp.StartNS < parentStart {
		t.Fatalf("span %q starts at %d, before its parent (%d)", sp.Name, sp.StartNS, parentStart)
	}
	if end := sp.StartNS + sp.DurationNS; end > parentEnd {
		t.Fatalf("span %q ends at %d, after its parent (%d)", sp.Name, end, parentEnd)
	}
	for _, c := range sp.Children {
		wellFormed(t, c, sp.StartNS, sp.StartNS+sp.DurationNS)
	}
}

// TestSpanTreesWellFormed builds span trees — including the pathological
// shapes: a parent ended while children are still open, and a span ended
// twice — and checks every reported tree is well-formed.
func TestSpanTreesWellFormed(t *testing.T) {
	h := New()

	// Ordinary tree.
	root := h.StartSpan("parse")
	c1 := root.Child("stage1")
	time.Sleep(time.Millisecond)
	c1.End()
	c1.End() // idempotent
	c2 := root.Child("stage2")
	g := c2.Child("grandchild")
	time.Sleep(time.Millisecond)
	g.End()
	c2.End()
	root.End()

	// Parent ended first: open children must be closed at the same instant.
	p := h.StartSpan("abandoned")
	_ = p.Child("open-child")
	open2 := p.Child("open-child-2")
	_ = open2.Child("open-grandchild")
	p.End()

	trees := h.RecentSpans()
	if len(trees) != 2 {
		t.Fatalf("RecentSpans = %d trees, want 2", len(trees))
	}
	for _, tree := range trees {
		if tree.StartNS != 0 {
			t.Fatalf("root %q StartNS = %d, want 0", tree.Name, tree.StartNS)
		}
		wellFormed(t, tree, 0, tree.StartNS+tree.DurationNS)
	}

	// The abandoned children were implicitly ended: their stage timings
	// exist and their reported end does not exceed the parent's.
	stages := map[string]StageTiming{}
	for _, st := range h.StageTimings() {
		stages[st.Path] = st
	}
	for _, path := range []string{
		"parse", "parse/stage1", "parse/stage2", "parse/stage2/grandchild",
		"abandoned", "abandoned/open-child", "abandoned/open-child-2",
		"abandoned/open-child-2/open-grandchild",
	} {
		st, ok := stages[path]
		if !ok {
			t.Fatalf("stage %q missing from StageTimings (have %v)", path, h.StageTimings())
		}
		if st.Count != 1 {
			t.Fatalf("stage %q count = %d, want 1", path, st.Count)
		}
		if st.TotalNS < 0 {
			t.Fatalf("stage %q total = %d, want >= 0", path, st.TotalNS)
		}
	}
}

// TestSpanContextPropagation checks SpanFrom's three behaviours: child of
// the context span when one is present, new root otherwise, nil when both
// the context is empty and the handle disabled.
func TestSpanContextPropagation(t *testing.T) {
	h := New()
	ctx := context.Background()

	root := h.SpanFrom(ctx, "tier")
	child := h.SpanFrom(ContextWith(ctx, root), "parse")
	child.End()
	root.End()

	trees := h.RecentSpans()
	if len(trees) != 1 {
		t.Fatalf("RecentSpans = %d trees, want 1 (child must not be a root)", len(trees))
	}
	if len(trees[0].Children) != 1 || trees[0].Children[0].Name != "parse" {
		t.Fatalf("tier span children = %+v, want one child %q", trees[0].Children, "parse")
	}
	if got := h.StageTimings(); len(got) != 2 || got[0].Path != "tier" || got[1].Path != "tier/parse" {
		t.Fatalf("StageTimings = %+v, want tier and tier/parse", got)
	}

	var disabled *Handle
	if sp := disabled.SpanFrom(ctx, "x"); sp != nil {
		t.Fatal("disabled handle with empty context should return a nil span")
	}
	if sp := disabled.SpanFrom(ContextWith(ctx, root), "x"); sp == nil {
		t.Fatal("a context-carried span must adopt children even via a nil handle")
	}
}

// TestRecentSpansBounded verifies the root-span ring: only the newest
// recentRootCap trees are kept, oldest first.
func TestRecentSpansBounded(t *testing.T) {
	h := New()
	const total = recentRootCap + 17
	for i := 0; i < total; i++ {
		h.StartSpan(fmt.Sprintf("root-%d", i)).End()
	}
	trees := h.RecentSpans()
	if len(trees) != recentRootCap {
		t.Fatalf("RecentSpans = %d trees, want %d", len(trees), recentRootCap)
	}
	for i, tree := range trees {
		want := fmt.Sprintf("root-%d", total-recentRootCap+i)
		if tree.Name != want {
			t.Fatalf("trees[%d] = %q, want %q (oldest-first ring order)", i, tree.Name, want)
		}
	}
}

// TestRegistryStress hammers one handle from 32 goroutines — counters,
// histograms, span trees, and concurrent snapshot/report readers —
// and then checks the totals. Run with -race, this is the data-race lockdown
// for the whole package.
func TestRegistryStress(t *testing.T) {
	h := New()
	const goroutines = 32
	const iters = 2000

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := fmt.Sprintf("shared-%d", g%4) // contended lookups
			for i := 0; i < iters; i++ {
				h.Counter(name).Inc()
				h.Histogram("lat", DurationBuckets).Observe(float64(i) * 1e-4)
				if i%100 == 0 {
					sp := h.StartSpan("work")
					sp.Child("inner").End()
					sp.End()
				}
				if i%250 == 0 {
					_ = h.Snapshot()
					_ = h.StageTimings()
					_ = h.RecentSpans()
					_ = h.Report("stress")
					_ = h.Var().String()
				}
			}
		}(g)
	}
	wg.Wait()

	var total uint64
	snap := h.Snapshot()
	for i := 0; i < 4; i++ {
		total += snap.Counters[fmt.Sprintf("shared-%d", i)]
	}
	if want := uint64(goroutines * iters); total != want {
		t.Fatalf("counter total = %d, want %d", total, want)
	}
	if got := snap.Histograms["lat"].Count; got != goroutines*iters {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iters)
	}
	for _, tree := range h.RecentSpans() {
		wellFormed(t, tree, 0, tree.StartNS+tree.DurationNS)
	}
}

// TestNilHandleSafe calls the entire API on a nil handle and nil
// instruments; everything must no-op and export paths must return the empty
// (but non-nil) shapes.
func TestNilHandleSafe(t *testing.T) {
	var h *Handle
	h.Counter("c").Inc()
	h.Counter("c").Add(5)
	if h.Counter("c").Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	hist := h.Histogram("h", DurationBuckets)
	hist.Observe(1)
	if hist.Count() != 0 || hist.Sum() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	sp := h.StartSpan("s")
	sp.Child("c").End()
	sp.End()
	if h.Registry() != nil {
		t.Fatal("nil handle should expose a nil registry")
	}
	snap := h.Snapshot()
	if snap.Counters == nil || snap.Histograms == nil {
		t.Fatal("nil-handle snapshot should have non-nil empty maps")
	}
	if got := h.StageTimings(); got == nil || len(got) != 0 {
		t.Fatalf("nil-handle StageTimings = %v, want empty non-nil", got)
	}
	if got := h.RecentSpans(); got == nil || len(got) != 0 {
		t.Fatalf("nil-handle RecentSpans = %v, want empty non-nil", got)
	}
	rep := h.Report("tool")
	if rep == nil || rep.Tool != "tool" {
		t.Fatal("nil-handle Report should still carry the tool name")
	}
	if h.Var().String() == "" {
		t.Fatal("nil-handle Var should render the empty snapshot")
	}
}
