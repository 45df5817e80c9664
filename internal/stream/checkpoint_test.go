package stream

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logparse/internal/faultinject"
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
	var ce *CorruptError
	if !errors.As(info.CorruptCurrent, &ce) {
		t.Fatalf("CorruptCurrent = %v, want a CorruptError", info.CorruptCurrent)
	}
	if !strings.Contains(ce.Reason, "digest mismatch") {
		t.Fatalf("Reason = %q, want a digest mismatch", ce.Reason)
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
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Load of a truncated sole generation = %v, want CorruptError", err)
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
	var ce *CorruptError
	if !errors.As(err, &ce) || !strings.Contains(ce.Reason, "duplicate template") {
		t.Fatalf("Load = %v, want duplicate-template CorruptError", err)
	}
}

// TestEncodeBaseIsPlainStateJSON: splicing the learner's snapshot into a
// base yields exactly the bytes json.Marshal of the State would.
func TestEncodeBaseIsPlainStateJSON(t *testing.T) {
	for _, online := range []*OnlineState{nil, {Parser: `Dr"ain`, Data: []byte(`{"depth":4,"templates":[["a","*"]]}`)}} {
		st := testState(9)
		st.Online = online
		got, err := encodeBase(st, 3)
		if err != nil {
			t.Fatal(err)
		}
		st.Gen = 3
		if want, _ := json.Marshal(st); string(got) != string(want) {
			t.Fatalf("encodeBase = %s\njson.Marshal = %s", got, want)
		}
	}
}
