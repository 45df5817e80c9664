package eventstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// smallOpts forces many blocks and several segments out of modest corpora.
func smallOpts(dir string) Options {
	return Options{Dir: dir, BlockBytes: 64, SegmentBytes: 1 << 10}
}

// synthEvent builds the i-th event of the deterministic test corpus:
// templates rotate through 8 ids with every 11th line unmatched, times
// advance 1ms per line.
func synthEvent(i int) Event {
	ev := Event{
		Seq:  int64(i + 1),
		Time: int64(i) * int64(time.Millisecond),
		Kind: KindMatched,
	}
	if i%11 == 10 {
		ev.Template = -1
		ev.Kind = KindUnmatched
	} else {
		ev.Template = int32(i % 8)
	}
	return ev
}

// appendSynth appends events i ∈ [lo, hi) of the corpus.
func appendSynth(t *testing.T, s *Store, lo, hi int) {
	t.Helper()
	for i := lo; i < hi; i++ {
		if err := s.Append(synthEvent(i)); err != nil {
			t.Fatalf("Append(%d): %v", i, err)
		}
	}
}

// readAll scans every event back out of a store directory, in order.
func readAll(t *testing.T, dir string) []Event {
	t.Helper()
	r, _, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	var out []Event
	if _, err := r.Scan(Query{IncludeUnmatched: true}, func(ev Event) error {
		out = append(out, ev)
		return nil
	}); err != nil {
		t.Fatalf("Scan: %v", err)
	}
	return out
}

func TestStoreRoundtrip(t *testing.T) {
	dir := t.TempDir()
	s, info, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if info.Segments != 0 || info.Units != 0 {
		t.Fatalf("fresh dir not empty: %+v", info)
	}
	const n = 2000
	appendSynth(t, s, 0, n)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	st := s.Stats()
	if st.Events != n || st.Pending != 0 {
		t.Fatalf("stats after finalize: %+v", st)
	}
	if st.Segments < 2 {
		t.Fatalf("want multiple segments from %d events at 1KiB rotation, got %d", n, st.Segments)
	}
	if st.Blocks < 10 {
		t.Fatalf("want many blocks at 64B block size, got %d", st.Blocks)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got := readAll(t, dir)
	if len(got) != n {
		t.Fatalf("read back %d events, want %d", len(got), n)
	}
	for i, ev := range got {
		if ev != synthEvent(i) {
			t.Fatalf("event %d: got %+v want %+v", i, ev, synthEvent(i))
		}
	}

	// A second Open must report the same state without repairs.
	s2, info2, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if info2.Units != n || info2.LastSeq != n || info2.TornTails != 0 || info2.CorruptDropped != 0 {
		t.Fatalf("reopen info: %+v", info2)
	}
}

func TestStoreReopenAppend(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 500)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, info, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if info.LastSeq != 500 {
		t.Fatalf("reopen LastSeq = %d, want 500", info.LastSeq)
	}
	appendSynth(t, s, 500, 1000)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	got := readAll(t, dir)
	if len(got) != 1000 {
		t.Fatalf("read back %d events, want 1000", len(got))
	}
	for i, ev := range got {
		if ev != synthEvent(i) {
			t.Fatalf("event %d: got %+v want %+v", i, ev, synthEvent(i))
		}
	}
}

func TestStoreCloseSealsPending(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 7) // well under BlockBytes: stays pending
	if got := s.Stats().Pending; got != 7 {
		t.Fatalf("pending = %d, want 7", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if got := readAll(t, dir); len(got) != 7 {
		t.Fatalf("read back %d events after Close, want 7", len(got))
	}
}

func TestStoreAlignTo(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 1200)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, _, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// Aligning at or above the tail is a no-op.
	if ai, err := s.AlignTo(5000); err != nil || ai.BlocksDropped != 0 {
		t.Fatalf("AlignTo(5000) = %+v, %v", ai, err)
	}
	ai, err := s.AlignTo(600)
	if err != nil {
		t.Fatalf("AlignTo(600): %v", err)
	}
	if ai.BlocksDropped == 0 {
		t.Fatalf("AlignTo(600) dropped nothing: %+v", ai)
	}
	last := s.LastSeq()
	if last > 600 {
		t.Fatalf("LastSeq %d above alignment point 600", last)
	}
	// Blocks never span a Finalize boundary, so aligning to a finalized
	// seq keeps everything below it; dropped events are exactly the tail.
	if got := s.Stats().Events; got != last {
		t.Fatalf("events %d != lastSeq %d after align", got, last)
	}
	if ai.EventsDropped != 1200-last {
		t.Fatalf("EventsDropped = %d, want %d", ai.EventsDropped, 1200-last)
	}

	// The resumed engine replays from its checkpoint: re-append the
	// dropped suffix and the store must converge to the original.
	appendSynth(t, s, int(last), 1200)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize after align: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := readAll(t, dir)
	if len(got) != 1200 {
		t.Fatalf("read back %d events, want 1200", len(got))
	}
	for i, ev := range got {
		if ev != synthEvent(i) {
			t.Fatalf("event %d: got %+v want %+v", i, ev, synthEvent(i))
		}
	}
}

func TestStoreAlignToWholeSegmentRemoval(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 1200)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if got := s.Stats().Segments; got < 2 {
		t.Fatalf("need ≥2 segments, got %d", got)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	s, _, err = Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s.Close()
	ai, err := s.AlignTo(1) // drop everything after the very first event
	if err != nil {
		t.Fatalf("AlignTo(1): %v", err)
	}
	if ai.SegmentsRemoved == 0 {
		t.Fatalf("expected whole-segment removals: %+v", ai)
	}
	// Seq 1 sits mid-block (no checkpoint was taken there), so exactly the
	// block holding it is flagged as spanning — the indicator the engine
	// relies on never firing when it aligns to finalize boundaries.
	if ai.Spanning != 1 {
		t.Fatalf("want exactly the first block flagged spanning: %+v", ai)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "evt-*.seg"))
	if len(names) != s.Stats().Segments {
		t.Fatalf("disk has %d segments, store believes %d", len(names), s.Stats().Segments)
	}
}

func TestStoreAppendSeqRegressionLatches(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.Append(Event{Seq: 10, Template: 0}); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// Equal seqs are allowed (late re-matches reuse the current offset)…
	if err := s.Append(Event{Seq: 10, Template: 1, Kind: KindLateMatched}); err != nil {
		t.Fatalf("Append equal seq: %v", err)
	}
	// …but regressions latch the store failed.
	if err := s.Append(Event{Seq: 5, Template: 0}); err == nil {
		t.Fatal("Append with regressing seq succeeded")
	}
	if err := s.Append(Event{Seq: 11, Template: 0}); err == nil {
		t.Fatal("Append after latched error succeeded")
	}
	if s.Err() == nil {
		t.Fatal("Err() nil after seq regression")
	}
}

func TestStoreRejectsBadTemplate(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer s.Close()
	if err := s.Append(Event{Seq: 1, Template: -2}); err == nil {
		t.Fatal("Append with template -2 succeeded")
	}
}

// TestStoreRejectsWhatTheDecoderRefuses: an event no read would accept must
// not reach a checksummed block — Append latches on it like on a bad
// template, and nothing of it is written.
func TestStoreRejectsWhatTheDecoderRefuses(t *testing.T) {
	for name, bad := range map[string]Event{
		"kind at kindLimit": {Seq: 2, Template: 0, Kind: kindLimit},
		"kind 255":          {Seq: 2, Template: 0, Kind: 255},
		"negative RawOff":   {Seq: 2, Template: 0, RawOff: -1},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if err := s.Append(Event{Seq: 1, Template: 0, RawOff: 7}); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := s.Append(bad); err == nil {
				t.Fatalf("Append(%+v) succeeded", bad)
			}
			if err := s.Append(Event{Seq: 3}); err == nil || s.Err() == nil {
				t.Fatalf("the failure did not latch: Append = %v, Err = %v", err, s.Err())
			}
			if err := s.Finalize(); err == nil {
				t.Fatal("Finalize after the latched failure succeeded")
			}
			s.Close()
			if got := readAll(t, dir); len(got) != 0 {
				t.Fatalf("a failed store wrote %d events", len(got))
			}
			if _, err := AppendBlock(nil, []Event{bad}); err == nil {
				t.Fatalf("AppendBlock(%+v) succeeded", bad)
			}
		})
	}
}

func TestStoreClosedOps(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := s.Append(Event{Seq: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Append after close: %v", err)
	}
	if err := s.Finalize(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Finalize after close: %v", err)
	}
	if _, err := s.AlignTo(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("AlignTo after close: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

func TestOpenReaderEmptyDir(t *testing.T) {
	r, info, err := OpenReader(t.TempDir(), ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	if info.Blocks != 0 || info.Events != 0 {
		t.Fatalf("empty dir info: %+v", info)
	}
	n, _, err := r.Count(Query{IncludeUnmatched: true})
	if err != nil || n != 0 {
		t.Fatalf("Count on empty reader = %d, %v", n, err)
	}
}

func TestDecodeSegmentMatchesMetaScan(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 700)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "evt-*.seg"))
	if len(names) == 0 {
		t.Fatal("no segments written")
	}
	for _, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		full, ferr := DecodeSegment(path, data, nil)
		meta, merr := scanSegmentMeta(data, true, nil)
		if ferr != nil || merr != nil {
			t.Fatalf("%s: decode errs %v / %v", path, ferr, merr)
		}
		if full != meta {
			t.Fatalf("%s: DecodeSegment %+v disagrees with scanSegmentMeta %+v", path, full, meta)
		}
	}
}
