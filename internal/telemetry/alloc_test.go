package telemetry

import (
	"context"
	"testing"
)

// TestDisabledTelemetryZeroAllocs locks down the core promise of the nil
// handle: instrumented code — counter bumps, histogram observations, span
// creation and context plumbing — allocates nothing when telemetry is off.
// Parsers run these calls per parse and the stream engine per line, so any
// allocation here is a regression on every uninstrumented run.
func TestDisabledTelemetryZeroAllocs(t *testing.T) {
	var h *Handle
	ctx := context.Background()

	cases := []struct {
		name string
		fn   func()
	}{
		{"counter", func() {
			h.Counter("parse.calls").Inc()
			h.Counter("parse.lines").Add(1000)
		}},
		{"histogram", func() {
			h.Histogram("parse.seconds", DurationBuckets).Observe(0.25)
		}},
		{"span", func() {
			sp := h.SpanFrom(ctx, "parse")
			c := sp.Child("stage")
			c.End()
			sp.End()
		}},
		{"parse", func() {
			p := h.StartParse(ctx, "slct", 1000)
			p.Child("vocab").End()
			p.Lines(1000)
			p.End()
		}},
		{"context", func() {
			ctx2 := ContextWith(ctx, nil)
			_ = FromContext(ctx2)
		}},
		{"value-reads", func() {
			_ = h.Counter("c").Value()
			_ = h.Histogram("h", DurationBuckets).Count()
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the disabled path, want 0", tc.name, allocs)
		}
	}
}

// BenchmarkDisabledCounter and BenchmarkDisabledSpan make the disabled-path
// cost visible in benchmark output (the ISSUE's "verified by benchmark"
// requirement): both should report 0 B/op, 0 allocs/op.
func BenchmarkDisabledCounter(b *testing.B) {
	var h *Handle
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Counter("parse.calls").Inc()
	}
}

func BenchmarkDisabledSpan(b *testing.B) {
	var h *Handle
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := h.SpanFrom(ctx, "parse")
		sp.Child("stage").End()
		sp.End()
	}
}

// BenchmarkEnabledCounter is the enabled-path counterpart, for comparing
// the cost of the two states.
func BenchmarkEnabledCounter(b *testing.B) {
	h := New()
	c := h.Counter("parse.calls")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
