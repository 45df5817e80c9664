package logsig

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"logparse/internal/core"
	"logparse/internal/eval"
	"logparse/internal/gen"
)

func msgsFrom(lines ...string) []core.LogMessage {
	out := make([]core.LogMessage, len(lines))
	for i, l := range lines {
		out[i] = core.LogMessage{LineNo: i + 1, Content: l, Tokens: core.Tokenize(l)}
	}
	return out
}

func TestParseEmptyInput(t *testing.T) {
	_, err := New(Options{NumGroups: 2}).Parse(nil)
	if !errors.Is(err, core.ErrNoMessages) {
		t.Errorf("err = %v, want ErrNoMessages", err)
	}
}

func TestNumGroupsRequired(t *testing.T) {
	if _, err := New(Options{}).Parse(msgsFrom("a b")); err == nil {
		t.Error("NumGroups=0 accepted")
	}
}

func TestKLargerThanInputIsClamped(t *testing.T) {
	res, err := New(Options{NumGroups: 50, Seed: 1}).Parse(msgsFrom("a b", "c d"))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(2); err != nil {
		t.Fatal(err)
	}
}

func TestLocalSearchSeparatesEvents(t *testing.T) {
	var lines []string
	for i := 0; i < 30; i++ {
		lines = append(lines, fmt.Sprintf("Receiving block b%d src s%d dest d%d", i, i, i))
		lines = append(lines, fmt.Sprintf("Verification succeeded for b%d", i))
	}
	res, err := New(Options{NumGroups: 2, Seed: 1}).Parse(msgsFrom(lines...))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 2 {
		t.Fatalf("templates = %d, want 2", len(res.Templates))
	}
	// All even-indexed (Receiving) lines together, all odd together.
	for i := 2; i < len(lines); i += 2 {
		if res.Assignment[i] != res.Assignment[0] {
			t.Fatalf("Receiving lines split across groups")
		}
		if res.Assignment[i+1] != res.Assignment[1] {
			t.Fatalf("Verification lines split across groups")
		}
	}
}

func TestSignatureWordsAndOrder(t *testing.T) {
	// The signature keeps words present in >half the group, ordered by
	// median position.
	members := []int{0, 1, 2}
	msgs := msgsFrom(
		"start job alpha end",
		"start job beta end",
		"start job gamma end",
	)
	sig := signature(members, msgs)
	want := []string{"start", "job", "end"}
	if !reflect.DeepEqual(sig, want) {
		t.Errorf("signature = %v, want %v", sig, want)
	}
}

func TestSignatureEmptyFallback(t *testing.T) {
	// No word passes the half threshold → wildcard-only template.
	msgs := msgsFrom("aa bb", "cc dd", "ee ff")
	sig := signature([]int{0, 1, 2}, msgs)
	if !reflect.DeepEqual(sig, []string{core.Wildcard}) {
		t.Errorf("signature = %v, want [*]", sig)
	}
}

func TestDeterministicWithFixedSeed(t *testing.T) {
	msgs := gen.HDFS().Generate(4, 800)
	a, err := New(Options{NumGroups: 20, Seed: 9}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{NumGroups: 20, Seed: 9}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("LogSig not deterministic for a fixed seed")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	// Random initialisation matters (the reason the paper averages 10
	// runs); different seeds may converge differently.
	msgs := gen.BGL().Generate(4, 500)
	f := func(seed int64) float64 {
		res, err := New(Options{NumGroups: 60, Seed: seed}).Parse(msgs)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]string, len(msgs))
		for i := range msgs {
			truth[i] = msgs[i].TruthID
		}
		m, err := eval.FMeasure(res.ClusterIDs(), truth)
		if err != nil {
			t.Fatal(err)
		}
		return m.F
	}
	// Not asserting inequality (seeds may coincide) — only that both runs
	// complete and produce sane scores.
	for _, seed := range []int64{1, 2} {
		if acc := f(seed); acc <= 0 || acc > 1 {
			t.Errorf("seed %d: F=%v out of range", seed, acc)
		}
	}
}

func TestWordPairs(t *testing.T) {
	pairs := wordPairs([]string{"a", "b", "c"})
	want := []pair{{"a", "b"}, {"a", "c"}, {"b", "c"}}
	if !reflect.DeepEqual(pairs, want) {
		t.Errorf("wordPairs = %v, want %v", pairs, want)
	}
	// Duplicates collapse.
	pairs = wordPairs([]string{"x", "x", "x"})
	if len(pairs) != 1 {
		t.Errorf("duplicate pairs not collapsed: %v", pairs)
	}
}

func TestScore(t *testing.T) {
	counts := []int32{3, 1, 0} // pair ids 0, 1, 2
	got := score([]int32{0, 1, 2}, counts, 3)
	want := 1.0 + 1.0/9.0 // (3/3)² + (1/3)² + 0
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("score = %v, want %v", got, want)
	}
	if score(nil, counts, 0) != 0 {
		t.Error("empty group score must be 0")
	}
}

func TestAllMessagesAssigned(t *testing.T) {
	msgs := gen.Proxifier().Generate(6, 500)
	res, err := New(Options{NumGroups: 8, Seed: 2}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(len(msgs)); err != nil {
		t.Fatal(err)
	}
	if _, outliers := res.EventCounts(); outliers != 0 {
		t.Errorf("LogSig has no outlier concept; got %d outliers", outliers)
	}
}

func TestRestartsImprovePotentialMonotonically(t *testing.T) {
	// The multi-restart variant keeps the best-potential solution, so its
	// accuracy must never fall below the single run with the same base
	// seed by more than noise... assert the mechanism directly instead:
	// potentials of the chosen solution are >= each individual restart's.
	msgs := gen.Zookeeper().Generate(21, 600)
	pairsOf, numPairs := pairIDs(msgs)
	p := New(Options{NumGroups: 30, Seed: 5, Restarts: 1})
	var pots []float64
	for r := int64(0); r < 3; r++ {
		g, s, c, err := p.localSearch(context.Background(), pairsOf, numPairs, 30, 5+r)
		if err != nil {
			t.Fatal(err)
		}
		pots = append(pots, potential(pairsOf, g, c, s))
	}
	maxPot := pots[0]
	for _, v := range pots[1:] {
		if v > maxPot {
			maxPot = v
		}
	}
	// Reconstruct what the Restarts=3 parser would pick.
	best := -1.0
	for r := int64(0); r < 3; r++ {
		g, s, c, err := p.localSearch(context.Background(), pairsOf, numPairs, 30, 5+r)
		if err != nil {
			t.Fatal(err)
		}
		if pot := potential(pairsOf, g, c, s); pot > best {
			best = pot
		}
	}
	if best != maxPot {
		t.Errorf("restart selection picked potential %v, max individual %v", best, maxPot)
	}
}

func TestRestartsDeterministic(t *testing.T) {
	msgs := gen.HDFS().Generate(22, 500)
	a, err := New(Options{NumGroups: 20, Seed: 4, Restarts: 3}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{NumGroups: 20, Seed: 4, Restarts: 3}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("restarted LogSig not deterministic")
	}
}
