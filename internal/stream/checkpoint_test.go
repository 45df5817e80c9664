package stream

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logparse/internal/core"
	"logparse/internal/faultinject"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/spell"
	"logparse/internal/seglog"
)

// tearSave returns a checkpoint seam that cuts the nth save's writes short
// after limit bytes, whichever file that save is writing, and the number of
// saves begun so far.
func tearSave(n int, limit int64) (seglog.Seam, *int) {
	saves := new(int)
	return seglog.Seam{
		Hook: func(point string) error {
			if point == "save" {
				*saves++
			}
			return nil
		},
		Wrap: func(f *os.File) seglog.File {
			c := faultinject.NewWALCrashFile(f)
			c.TearAfter = limit
			c.Armed = func() bool { return *saves == n }
			return c
		},
	}, saves
}

// rebaseNext makes e's next save write a base whatever the byte counts say.
func rebaseNext(e *Engine) { e.store.basePayload = 0 }

func testState(offset int64) *State {
	return &State{
		Offset: offset,
		Templates: []SavedTemplate{
			{ID: "S1", Tokens: []string{"connection", "from", "*"}, Count: offset * 2},
			{ID: "S2", Tokens: []string{"error", "*", "retry"}, Count: 7},
		},
		Unmatched: []string{"weird line one", "weird line two"},
		Counters:  Counters{Processed: offset, Matched: offset - 2},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testState(42)
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, info, err := s.Load()
	if err != nil {
		t.Fatal(err)
	}
	if info.Source != "current" {
		t.Fatalf("Source = %q, want current", info.Source)
	}
	if got.Offset != 42 || len(got.Templates) != 2 || got.Templates[0].Count != 84 {
		t.Fatalf("round trip mangled state: %+v", got)
	}
	if len(got.Unmatched) != 2 || got.Unmatched[1] != "weird line two" {
		t.Fatalf("unmatched buffer mangled: %v", got.Unmatched)
	}
}

func TestCheckpointLoadEmptyDir(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st, info, err := s.Load()
	if err != nil || st != nil || info.Source != "none" {
		t.Fatalf("Load on empty dir = (%v, %+v, %v), want (nil, none, nil)", st, info, err)
	}
}

func TestCheckpointRotationKeepsPreviousGeneration(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	if err := s.Save(testState(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(testState(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, prevName)); err != nil {
		t.Fatalf("previous generation missing after second save: %v", err)
	}
	st, info, err := s.Load()
	if err != nil || info.Source != "current" || st.Offset != 20 {
		t.Fatalf("Load = (%+v, %+v, %v), want current offset 20", st, info, err)
	}
}

// corrupt flips a byte inside the payload of a checkpoint file.
func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointCorruptCurrentFallsBackToPrevious(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	s.Save(testState(10))
	s.Save(testState(20))
	corrupt(t, filepath.Join(dir, currentName))

	st, info, err := s.Load()
	if err != nil {
		t.Fatalf("Load should fall back, got error %v", err)
	}
	if info.Source != "previous" || st.Offset != 10 {
		t.Fatalf("Load = source %q offset %d, want previous/10", info.Source, st.Offset)
	}
	var ce *seglog.CorruptError
	if !errors.As(info.CorruptCurrent, &ce) {
		t.Fatalf("CorruptCurrent = %v, want a CorruptError", info.CorruptCurrent)
	}
	if !strings.Contains(ce.Reason, "digest mismatch") || ce.Log != "checkpoint" || ce.Path != filepath.Join(dir, currentName) {
		t.Fatalf("CorruptCurrent = %q in %s (log %q), want a digest mismatch in the current base", ce.Reason, ce.Path, ce.Log)
	}

	// An engine that starts from the previous base says why in its stats.
	eng, err := New(Config{CheckpointDir: dir, Retrainer: &groupMiner{minSupport: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats(); got.RecoveredFrom != "previous" || got.RecoveryError != ce.Error() {
		t.Fatalf("stats = recovered %q / error %q, want previous + %q", got.RecoveredFrom, got.RecoveryError, ce.Error())
	}
}

func TestCheckpointAllGenerationsCorruptIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	s.Save(testState(10))
	s.Save(testState(20))
	corrupt(t, filepath.Join(dir, currentName))
	corrupt(t, filepath.Join(dir, prevName))
	if _, _, err := s.Load(); err == nil {
		t.Fatal("Load with every generation corrupt should fail loudly")
	}
}

func TestCheckpointTruncatedFileIsCorrupt(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	s.Save(testState(10))
	path := filepath.Join(dir, currentName)
	data, _ := os.ReadFile(path)
	os.WriteFile(path, data[:len(data)/2], 0o644)
	_, _, err := s.Load()
	var ce *seglog.CorruptError
	if !errors.As(err, &ce) || ce.Path != path {
		t.Fatalf("Load of a truncated sole generation = %v, want a CorruptError naming %s", err, path)
	}
}

// TestUnreadableBaseFailsNew: only damage is absorbed into an empty start.
// A base that cannot be read at all — here a directory in its place — fails
// New even when the other base is corrupt.
func TestUnreadableBaseFailsNew(t *testing.T) {
	for _, names := range [][2]string{{currentName, prevName}, {prevName, currentName}} {
		unreadable, rotten := names[0], names[1]
		dir := t.TempDir()
		s, _ := NewStore(dir)
		s.Save(testState(10))
		s.Save(testState(20))
		corrupt(t, filepath.Join(dir, rotten))
		if err := os.Remove(filepath.Join(dir, unreadable)); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(filepath.Join(dir, unreadable), 0o755); err != nil {
			t.Fatal(err)
		}
		_, err := New(Config{CheckpointDir: dir, Retrainer: &groupMiner{minSupport: 3}})
		var ce *seglog.CorruptError
		if err == nil || errors.As(err, &ce) {
			t.Fatalf("New with %s unreadable and %s corrupt = %v, want the read error alone", unreadable, rotten, err)
		}
	}
}

// testDelta is a delta that follows testState(prev): the first template's
// count and the offset move.
func testDelta(offset int64) *delta {
	return &delta{
		Offset: offset, Counters: Counters{Processed: offset, Matched: offset - 2},
		Unmatched: []string{"weird line one"}, NumTemplates: 2,
		Counts: [][2]int64{{0, offset * 2}},
	}
}

// TestCheckpointTornWriteDetectedAtLoad: a write cut short mid-save — the
// tail of a delta record, or of a base — costs that save and nothing else.
// The torn save reports its failure, Load names the torn tail it stopped at,
// and the next save repairs the log and extends the chain.
func TestCheckpointTornWriteDetectedAtLoad(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	seam, saves := tearSave(2, 40)
	s.seam = seam
	if err := s.Save(testState(10)); err != nil { // the healthy base
		t.Fatal(err)
	}
	if _, err := s.saveDelta(testDelta(20)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.saveDelta(testDelta(30)); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("torn delta append = %v, want the injected crash", err)
	}
	if *saves != 2 {
		t.Fatalf("seam counted %d delta saves, want 2", *saves)
	}

	load := func() (*State, LoadInfo) {
		t.Helper()
		r, _ := NewStore(dir)
		st, info, err := r.Load()
		if err != nil {
			t.Fatal(err)
		}
		return st, info
	}
	st, info := load()
	var torn *seglog.TornTailError
	if info.Source != "current" || info.Deltas != 1 || st.Offset != 20 || st.Templates[0].Count != 40 || !errors.As(info.ChainEnd, &torn) {
		t.Fatalf("Load = source %q + %d deltas at offset %d (chain end %v), want current + 1 at 20, stopped by a torn tail",
			info.Source, info.Deltas, st.Offset, info.ChainEnd)
	}

	// A base torn before it is published never replaces the current one.
	s.seam.Wrap = func(f *os.File) seglog.File {
		c := faultinject.NewWALCrashFile(f)
		c.TearAfter = 40
		return c
	}
	if err := s.Save(testState(40)); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("torn base write = %v, want the injected crash", err)
	}
	s, _ = NewStore(dir) // a restart: the first save repairs the log
	if _, err := s.saveDelta(testDelta(50)); err != nil {
		t.Fatal(err)
	}
	if st, info = load(); info.Source != "current" || info.Deltas != 2 || st.Offset != 50 || info.ChainEnd != nil {
		t.Fatalf("after the repair Load = source %q + %d deltas at offset %d (chain end %v), want current + 2 at 50",
			info.Source, info.Deltas, st.Offset, info.ChainEnd)
	}
}

func TestCheckpointRejectsDuplicateTemplates(t *testing.T) {
	dir := t.TempDir()
	s, _ := NewStore(dir)
	st := testState(5)
	st.Templates = append(st.Templates, st.Templates[0])
	if err := s.Save(st); err != nil {
		t.Fatal(err)
	}
	_, _, err := s.Load()
	var ce *seglog.CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "duplicate template") {
		t.Fatalf("Load = %v, want duplicate-template CorruptError", err)
	}
}

// TestEncodeBaseIsPlainStateJSON: appending the state-sized members by hand
// — templates, unmatched lines, the learner's snapshot — yields exactly the
// bytes json.Marshal of the State would, in a buffer sized once.
func TestEncodeBaseIsPlainStateJSON(t *testing.T) {
	online := &OnlineState{Parser: `Dr"ain<&>`, Data: []byte(`{"depth":4,"templates":[["a","*"]]}`)}
	shapes := []func(st *State){
		func(st *State) {},
		func(st *State) { st.Online = online },
		func(st *State) { st.Templates, st.Unmatched = nil, nil },
		func(st *State) { st.Templates, st.Unmatched = []SavedTemplate{}, []string{} },
		func(st *State) {
			// Online mode: counts only, in group order.
			st.Templates = []SavedTemplate{{Count: 3}, {Count: -1}, {}}
			st.Online = online
		},
		func(st *State) {
			st.Templates = append(st.Templates, SavedTemplate{ID: `S\3`, Tokens: []string{}},
				SavedTemplate{Tokens: []string{"\u2028 \xff\x01", "<b>"}, Count: 1 << 62})
			st.Unmatched = append(st.Unmatched, "tab\there \"quoted\" \u2029", "\xc3\x28")
			st.BreakerFailures, st.BreakerOpen = 3, true
		},
	}
	for i, shape := range shapes {
		for _, gen := range []uint64{0, 3} {
			st := testState(9)
			shape(st)
			got, err := encodeBase(st, gen)
			if err != nil {
				t.Fatal(err)
			}
			st.Gen = gen
			if want, _ := json.Marshal(st); string(got) != string(want) {
				t.Fatalf("shape %d gen %d: encodeBase = %s\njson.Marshal = %s", i, gen, got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("shape %d gen %d: encodeBase sized its buffer %d for %d bytes", i, gen, cap(got), len(got))
			}
		}
	}
}

// TestChainFinishIsJSONMarshal: folding template deltas into an online base
// re-encodes the learner's snapshot with core.MarshalSnapshot, and the bytes
// equal json.Marshal of the decoded snapshot with its "templates" member
// replaced — HTML characters and invalid UTF-8 in tokens included, whether
// folded straight into a chain or read back from a delta record.
func TestChainFinishIsJSONMarshal(t *testing.T) {
	learners := map[string]func() OnlineParser{
		"drain": func() OnlineParser { return drain.NewStream(drain.Options{}) },
		"spell": func() OnlineParser { return spell.NewStream(spell.Options{}) },
	}
	// marshalMap is the fold as json.Marshal writes it: the templates
	// member replaced, the whole map marshalled with its keys sorted.
	marshalMap := func(t *testing.T, blob []byte, edit func([][]string) [][]string) []byte {
		t.Helper()
		var m map[string]json.RawMessage
		var tmpls [][]string
		if err := json.Unmarshal(blob, &m); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(m["templates"], &tmpls); err != nil {
			t.Fatal(err)
		}
		m["templates"], _ = json.Marshal(edit(tmpls))
		out, _ := json.Marshal(m)
		return out
	}
	changed := []string{"\xc3\x28", `"q"&`, "</script>", "\u2028", "\x01"}
	for name, fresh := range learners {
		t.Run(name, func(t *testing.T) {
			learner := fresh()
			for _, line := range []string{"open <a&b> file 7", "open <a&b> file 8", "close \xff\xfe now"} {
				learner.LearnBytes(core.TokenizeBytes([]byte(line), nil))
			}
			blob, err := learner.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			n := len(learner.Templates())

			// Straight into a chain: raw invalid UTF-8 reaches the encoder.
			c := chain{st: &State{Online: &OnlineState{}}}
			if err := json.Unmarshal(blob, &c.learner); err != nil {
				t.Fatal(err)
			}
			json.Unmarshal(c.learner["templates"], &c.tmpls)
			c.tmpls = append(c.tmpls, changed)
			want := marshalMap(t, blob, func(ts [][]string) [][]string { return append(ts, changed) })
			if err := c.finish(); err != nil || string(c.st.Online.Data) != string(want) {
				t.Fatalf("finish = %s (%v)\njson.Marshal = %s", c.st.Online.Data, err, want)
			}

			// Through a delta record and Load.
			s, _ := NewStore(t.TempDir())
			if err := s.Save(&State{Online: &OnlineState{Parser: learner.Name(), Data: blob}, Templates: make([]SavedTemplate, n)}); err != nil {
				t.Fatal(err)
			}
			generalised := []string{"open", "<*>", "&", "*"}
			d := &delta{Offset: 3, NumTemplates: n + 1, Templates: []templateDelta{{Index: 0, Tokens: generalised}, {Index: n, Tokens: changed}}}
			if _, err := s.saveDelta(d); err != nil {
				t.Fatal(err)
			}
			st, _, err := s.Load()
			if err != nil {
				t.Fatal(err)
			}
			var decoded []string // the tokens as the record carries them
			raw, _ := json.Marshal(changed)
			json.Unmarshal(raw, &decoded)
			want = marshalMap(t, blob, func(ts [][]string) [][]string {
				ts[0] = generalised
				return append(ts, decoded)
			})
			if string(st.Online.Data) != string(want) {
				t.Fatalf("folded snapshot = %s\njson.Marshal = %s", st.Online.Data, want)
			}
			if err := fresh().Restore(st.Online.Data); err != nil {
				t.Fatalf("restore the folded snapshot: %v", err)
			}
		})
	}
}
