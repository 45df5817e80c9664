package stream

import (
	"context"
	"os"
	"strings"
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/spell"
)

// onlineFactories covers both online learners; every conformance-style test
// below runs against each.
func onlineFactories() map[string]func() OnlineParser {
	return map[string]func() OnlineParser{
		"drain": func() OnlineParser { return drain.NewStream(drain.Options{}) },
		"spell": func() OnlineParser { return spell.NewStream(spell.Options{}) },
	}
}

// runOnline drives one engine incarnation over lines in online-parser mode.
// killAt > 0 cancels the context after that line — the crash path, no
// closing checkpoint — and the error is expected; killAt <= 0 runs to the
// clean end.
func runOnline(t *testing.T, dir string, lines []string, parser OnlineParser, killAt int64, ckptEvery int) *Engine {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := New(Config{
		CheckpointDir:   dir,
		CheckpointEvery: ckptEvery,
		Online:          parser,
		AfterLine: func(n int64) {
			if killAt > 0 && n >= killAt {
				cancel()
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = feedLines(ctx, e, lines)
	if killAt > 0 {
		if err == nil {
			t.Fatalf("run killed at line %d returned nil error", killAt)
		}
	} else if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	return e
}

// TestOnlineRunLearnsAndCheckpoints is the basic online-mode contract: a run
// learns templates in place (no retrainer configured), every non-empty line
// is matched, and the closing checkpoint carries the learner.
func TestOnlineRunLearnsAndCheckpoints(t *testing.T) {
	for name, mk := range onlineFactories() {
		t.Run(name, func(t *testing.T) {
			lines := synthLines(2000, 7)
			dir := t.TempDir()
			e := runOnline(t, dir, lines, mk(), 0, 500)
			st := e.Stats()
			if st.Templates == 0 {
				t.Fatal("no templates learned")
			}
			if st.Matched != st.Processed-st.Empty {
				t.Fatalf("online mode left lines unassigned: %+v", st)
			}
			if st.UnmatchedBuffered != 0 || st.Retrains != 0 {
				t.Fatalf("online mode used the retrain cycle: %+v", st)
			}
			if st.OnlineParser == "" {
				t.Fatal("Stats.OnlineParser is empty in online mode")
			}
			tmpls, counts := e.Result()
			var total int64
			for _, c := range counts {
				total += c
			}
			if total != st.Matched {
				t.Fatalf("counts sum %d, matched %d", total, st.Matched)
			}
			if len(tmpls) != st.Templates {
				t.Fatalf("Result has %d templates, Stats %d", len(tmpls), st.Templates)
			}
		})
	}
}

// TestOnlineCheckpointRoundTrip reopens a cleanly-checkpointed online engine
// and requires the digest to survive the restart, the learner to resume from
// the serialised snapshot, and further learning to proceed.
func TestOnlineCheckpointRoundTrip(t *testing.T) {
	for name, mk := range onlineFactories() {
		t.Run(name, func(t *testing.T) {
			lines := synthLines(1500, 21)
			dir := t.TempDir()
			first := runOnline(t, dir, lines, mk(), 0, 400)
			want := first.Digest()
			wantOffset := first.Stats().Offset

			resumed, err := New(Config{
				CheckpointDir: dir,
				Online:        mk(),
			})
			if err != nil {
				t.Fatal(err)
			}
			st := resumed.Stats()
			if st.RecoveredFrom != "current" {
				t.Fatalf("recovered from %q, want current", st.RecoveredFrom)
			}
			if st.Offset != wantOffset {
				t.Fatalf("restored offset %d, want %d", st.Offset, wantOffset)
			}
			if got := resumed.Digest(); got != want {
				t.Fatalf("digest changed across restart:\n  before %s\n  after  %s", want, got)
			}
			// The source has no lines past the restored offset; a resumed run
			// must be a no-op that leaves the digest untouched.
			if err := feedLines(context.Background(), resumed, lines); err != nil {
				t.Fatal(err)
			}
			if got := resumed.Digest(); got != want {
				t.Fatalf("no-op resume changed digest:\n  before %s\n  after  %s", want, got)
			}
		})
	}
}

// TestOnlineKillAndRecoverConvergence is the online-mode determinism
// contract from the PR issue: kill the engine at three uncheckpointed
// points, resume from disk each time with a fresh learner instance, and the
// final digest must equal an uninterrupted run's — the checkpoint carries
// the learner's full state, and replay from the last checkpoint is
// deterministic.
func TestOnlineKillAndRecoverConvergence(t *testing.T) {
	for name, mk := range onlineFactories() {
		t.Run(name, func(t *testing.T) {
			lines := synthLines(4000, 31)
			want := runOnline(t, t.TempDir(), lines, mk(), 0, 500).Digest()

			dir := t.TempDir()
			for _, killAt := range []int64{701, 1903, 3307} {
				runOnline(t, dir, lines, mk(), killAt, 500)
			}
			got := runOnline(t, dir, lines, mk(), 0, 500).Digest()
			if got != want {
				t.Fatalf("kill-and-recover digest diverged:\n  uninterrupted %s\n  recovered     %s", want, got)
			}
		})
	}
}

// TestOnlineModeMismatchRefused pins the checkpoint compatibility matrix: a
// retrain-mode checkpoint refuses to resume under an online parser, an
// online checkpoint refuses retrain mode, and an online checkpoint refuses a
// different online algorithm.
func TestOnlineModeMismatchRefused(t *testing.T) {
	lines := synthLines(1000, 5)

	retrainDir := t.TempDir()
	e, err := New(Config{CheckpointDir: retrainDir, Retrainer: &groupMiner{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), e, lines); err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{CheckpointDir: retrainDir, Online: drain.NewStream(drain.Options{})}); err == nil {
		t.Error("retrain checkpoint accepted by online engine")
	} else if !strings.Contains(err.Error(), "retrain mode") {
		t.Errorf("retrain-into-online error = %v", err)
	}

	onlineDir := t.TempDir()
	runOnline(t, onlineDir, lines, drain.NewStream(drain.Options{}), 0, 500)
	if _, err := New(Config{CheckpointDir: onlineDir, Retrainer: &groupMiner{}}); err == nil {
		t.Error("online checkpoint accepted by retrain engine")
	} else if !strings.Contains(err.Error(), "online-parser mode") {
		t.Errorf("online-into-retrain error = %v", err)
	}
	if _, err := New(Config{CheckpointDir: onlineDir, Online: spell.NewStream(spell.Options{})}); err == nil {
		t.Error("Drain checkpoint accepted by Spell engine")
	} else if !strings.Contains(err.Error(), `"Drain"`) {
		t.Errorf("cross-algorithm error = %v", err)
	}
}

// TestOnlineMatchedPathAllocs pins online mode's steady-state per-line cost
// at zero allocations, for both learners: once the template set has
// converged for a line shape, processLocked — tokenisation, the learner's
// accelerated match, the count bump, the counters — allocates nothing.
func TestOnlineMatchedPathAllocs(t *testing.T) {
	for name, mk := range onlineFactories() {
		t.Run(name, func(t *testing.T) {
			eng, err := New(Config{
				CheckpointDir:   t.TempDir(),
				CheckpointEvery: -1,
				Online:          mk(),
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx := context.Background()
			warm := []string{
				"connection from 10.0.0.1 port 1001",
				"connection from 10.0.0.2 port 1002",
				"session 17 closed after 40 ms",
				"session 91 closed after 7 ms",
			}
			for i, l := range warm {
				consumeOne(ctx, eng, item{lineNo: int64(i + 1), data: []byte(l)})
			}
			matched := item{lineNo: 99, data: []byte("connection from 10.0.0.9 port 1042")}
			empty := item{lineNo: 99, data: []byte("   \t  ")}
			for _, tc := range []struct {
				name string
				it   item
			}{{"matched", matched}, {"empty", empty}} {
				it := tc.it
				fn := func() { consumeOne(ctx, eng, it) }
				fn() // warm the token buffer and confirm the shape is learned
				if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
					t.Errorf("%s: %v allocs/op in online process, want 0", tc.name, allocs)
				}
			}
			before := eng.Stats().Templates
			consumeOne(ctx, eng, item{lineNo: 100, data: []byte("connection from 10.0.0.8 port 77")})
			if eng.Stats().Templates != before {
				t.Fatal("warm line still grows the template set")
			}
		})
	}
}

// TestOnlineDigestMatchesBatchParse: the engine's online result over a
// source equals a batch Parse of the same content — the engine adds
// durability machinery around the learner without changing what it learns.
func TestOnlineDigestMatchesBatchParse(t *testing.T) {
	lines := synthLines(1200, 13)
	eng := runOnline(t, t.TempDir(), lines, drain.NewStream(drain.Options{}), 0, -1)
	tmpls, counts := eng.Result()

	msgs := make([]core.LogMessage, len(lines))
	for i, l := range lines {
		msgs[i] = core.LogMessage{LineNo: i + 1, Content: l, Tokens: core.Tokenize(l)}
	}
	res, err := drain.New(drain.Options{}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	batchCounts := make([]int64, len(res.Templates))
	for _, a := range res.Assignment {
		if a >= 0 {
			batchCounts[a]++
		}
	}
	if got, want := Digest(tmpls, counts), Digest(res.Templates, batchCounts); got != want {
		t.Fatalf("engine digest %s != batch parse digest %s", got, want)
	}
}

// asV1 rewrites dir's newest checkpoint in the shape written before the
// learner's snapshot became the only copy of the templates: every
// State.Templates entry also carries the group's id and rendered tokens. It
// returns the sizes of that state's base in the new format and in v1.
func asV1(t *testing.T, dir string, mk func() OnlineParser, edit func(*State)) (newSize, v1Size int64) {
	t.Helper()
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := store.Load()
	if err != nil {
		t.Fatal(err)
	}
	size := func() int64 {
		fi, err := os.Stat(store.path(currentName))
		if err != nil {
			t.Fatal(err)
		}
		return fi.Size()
	}
	if err := store.Save(st); err != nil { // the chain compacted: one base holding the newest state
		t.Fatal(err)
	}
	newSize = size()
	learner := mk()
	if err := learner.Restore(st.Online.Data); err != nil {
		t.Fatal(err)
	}
	for i, tm := range learner.Templates() {
		if st.Templates[i].Tokens != nil {
			t.Fatalf("template %d of an online checkpoint carries tokens outside the snapshot", i)
		}
		st.Templates[i].ID, st.Templates[i].Tokens = tm.ID, tm.Tokens
	}
	if edit != nil {
		edit(st)
	}
	if err := store.Save(st); err != nil {
		t.Fatal(err)
	}
	return newSize, size()
}

// TestOnlineCheckpointV1Compatibility: a checkpoint carrying the templates
// twice still loads, is still cross-checked string by string, resumes to the
// uninterrupted digest — and is what the single-copy format is measured
// against: under 60 % of its size for the same engine state.
func TestOnlineCheckpointV1Compatibility(t *testing.T) {
	for name, mk := range onlineFactories() {
		t.Run(name, func(t *testing.T) {
			// Fresh Thunderbird lines: hundreds of templates, so the payload
			// is the templates and not the fixed header and counters.
			cat, err := gen.ByName("Thunderbird")
			if err != nil {
				t.Fatal(err)
			}
			var lines []string
			for _, m := range cat.Generate(31, 4000) {
				lines = append(lines, m.Content)
			}
			want := runOnline(t, t.TempDir(), lines, mk(), 0, 500).Digest()

			dir := t.TempDir()
			runOnline(t, dir, lines, mk(), 1903, 500)
			newSize, v1Size := asV1(t, dir, mk, nil)
			if float64(newSize) >= 0.6*float64(v1Size) {
				t.Errorf("online checkpoint is %d B, %d B with the templates twice: want under 60 %%", newSize, v1Size)
			}
			if got := runOnline(t, dir, lines, mk(), 0, 500).Digest(); got != want {
				t.Fatalf("resume from a v1 checkpoint diverged:\n  uninterrupted %s\n  recovered     %s", want, got)
			}

			runOnline(t, dir, lines, mk(), 0, 500) // closing checkpoint, new format
			asV1(t, dir, mk, func(st *State) { st.Templates[1].Tokens = []string{"not", "the", "learner's"} })
			if _, err := New(Config{CheckpointDir: dir, Online: mk()}); err == nil || !strings.Contains(err.Error(), "diverges from checkpoint") {
				t.Errorf("v1 checkpoint disagreeing with its learner: err = %v", err)
			}
		})
	}
}

// TestOnlineCheckpointCountListLength: with the tokens gone the count list's
// length is the one cross-check left between State.Templates and the
// learner, so it must refuse both directions.
func TestOnlineCheckpointCountListLength(t *testing.T) {
	for name, mk := range onlineFactories() {
		for _, delta := range []int{-1, +1} {
			dir := t.TempDir()
			runOnline(t, dir, synthLines(1000, 5), mk(), 0, 500)
			store, _ := NewStore(dir)
			st, _, err := store.Load()
			if err != nil {
				t.Fatal(err)
			}
			st.Templates = append(st.Templates, SavedTemplate{})[:len(st.Templates)+delta]
			if err := store.Save(st); err != nil {
				t.Fatal(err)
			}
			if _, err := New(Config{CheckpointDir: dir, Online: mk()}); err == nil || !strings.Contains(err.Error(), "checkpoint lists") {
				t.Errorf("%s, count list %+d: err = %v", name, delta, err)
			}
		}
	}
}

// TestStateTemplateNames: the names a checkpoint yields are the engine's
// rendered templates, whichever mode and format wrote it.
func TestStateTemplateNames(t *testing.T) {
	lines := synthLines(1000, 5)
	check := func(t *testing.T, e *Engine, dir string) {
		t.Helper()
		store, _ := NewStore(dir)
		st, _, err := store.Load()
		if err != nil {
			t.Fatal(err)
		}
		names, err := st.TemplateNames()
		if err != nil {
			t.Fatal(err)
		}
		tmpls, _ := e.Result()
		if len(names) != len(tmpls) || len(names) == 0 {
			t.Fatalf("%d names, %d templates", len(names), len(tmpls))
		}
		for i := range names {
			if names[i] != tmpls[i].String() {
				t.Fatalf("name %d = %q, engine renders %q", i, names[i], tmpls[i].String())
			}
		}
	}
	for name, mk := range onlineFactories() {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			e := runOnline(t, dir, lines, mk(), 0, 500)
			check(t, e, dir)
			asV1(t, dir, mk, nil)
			check(t, e, dir)
		})
	}
	t.Run("retrain", func(t *testing.T) {
		dir := t.TempDir()
		e, err := New(Config{CheckpointDir: dir, Retrainer: &groupMiner{}})
		if err != nil {
			t.Fatal(err)
		}
		if err := feedLines(context.Background(), e, lines); err != nil {
			t.Fatal(err)
		}
		check(t, e, dir)
	})
}
