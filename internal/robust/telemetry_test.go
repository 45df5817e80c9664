package robust

import (
	"testing"

	"logparse/internal/faultinject"
	"logparse/internal/parsers/iplom"
	"logparse/internal/telemetry"
)

// TestChainTelemetryCounters drives a panicking primary over a working
// fallback and checks the robust.* metrics agree with the chain's own
// Stats: attempts, panics, degradations, per-tier serves and per-attempt
// histogram observations.
func TestChainTelemetryCounters(t *testing.T) {
	tel := telemetry.New()
	p, err := New(Policy{Telemetry: tel},
		Tier{Name: "primary", Parser: faultinject.PanicParser{}},
		Tier{Name: "fallback", Parser: iplom.New(iplom.Options{Telemetry: tel})},
	)
	if err != nil {
		t.Fatal(err)
	}
	msgs := testMessages(120)
	const parses = 3
	for i := 0; i < parses; i++ {
		if _, err := p.Parse(msgs); err != nil {
			t.Fatalf("parse %d: %v", i, err)
		}
	}

	s := p.Stats()
	snap := tel.Snapshot()
	checks := []struct {
		name string
		want uint64
	}{
		{"robust.attempts", 2 * parses}, // panic attempt + fallback per parse
		{"robust.panics", s.Panics},
		{"robust.timeouts", s.Timeouts},
		{"robust.exhausted", s.Exhausted},
		{"robust.degraded", parses},
		{"robust.served.primary", s.ServedByTier[0]},
		{"robust.served.fallback", s.ServedByTier[1]},
	}
	for _, c := range checks {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if s.Panics != parses || s.ServedByTier[1] != parses {
		t.Fatalf("stats = %+v, want %d panics and fallback serves", s, parses)
	}
	if got := snap.Histograms["robust.tier.seconds"].Count; got != 2*parses {
		t.Errorf("robust.tier.seconds count = %d, want %d (every attempt observed)", got, 2*parses)
	}

	// The fallback parser's own spans must nest under the chain's
	// tier-attempt spans via context propagation, not appear as roots.
	stages := map[string]telemetry.StageTiming{}
	for _, st := range tel.StageTimings() {
		stages[st.Path] = st
	}
	for _, path := range []string{
		"robust.parse",
		"robust.parse/tier.primary",
		"robust.parse/tier.fallback",
		"robust.parse/tier.fallback/iplom.parse",
		"robust.parse/tier.fallback/iplom.parse/templates",
	} {
		st, ok := stages[path]
		if !ok {
			t.Fatalf("stage %q missing (have %v)", path, tel.StageTimings())
		}
		if st.Count != parses {
			t.Errorf("stage %q count = %d, want %d", path, st.Count, parses)
		}
	}
	if _, isRoot := stages["iplom.parse"]; isRoot {
		t.Error("iplom.parse recorded as a root stage; context propagation broken")
	}
	for _, tree := range tel.RecentSpans() {
		if tree.Name != "robust.parse" {
			t.Errorf("unexpected root span %q", tree.Name)
		}
	}
}
