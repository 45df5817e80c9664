package stream

import (
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logparse/internal/faultinject"
)

// runToEnd feeds lines to a fresh engine uninterrupted and returns its
// digest and stats.
func runToEnd(t *testing.T, cfg Config, lines []string) (string, Stats) {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), e, lines); err != nil {
		t.Fatal(err)
	}
	return e.Digest(), e.Stats()
}

// killAt runs one engine incarnation and hard-stops it (context cancel, no
// checkpoint — the crash model) right after processing line n of lines.
// Returns the engine so callers can inspect the corpse.
func killAt(t *testing.T, cfg Config, lines []string, n int64) *Engine {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.AfterLine = func(lineNo int64) {
		if lineNo == n {
			cancel()
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = feedLines(ctx, e, lines)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("killed run at line %d returned %v, want context.Canceled", n, err)
	}
	return e
}

// TestKillAndRecoverConvergesToUninterruptedRun is the headline recovery
// property: a run killed at several stream positions — far from any
// checkpoint boundary — and resumed each time ends with exactly the
// template set and per-template event counts of an uninterrupted run.
func TestKillAndRecoverConvergesToUninterruptedRun(t *testing.T) {
	lines := synthLines(700, 20)
	base := func(dir string) Config {
		return Config{
			CheckpointDir:   dir,
			RingBytes:       4 << 10,
			CheckpointEvery: 37, // deliberately coprime with the kill points
			RetrainBatch:    24,
			Retrainer:       &groupMiner{},
		}
	}
	wantDigest, wantStats := runToEnd(t, base(t.TempDir()), lines)

	dir := t.TempDir()
	for _, kill := range []int64{139, 347, 563} {
		e := killAt(t, base(dir), lines, kill)
		if got := e.Stats().Offset; got < kill {
			t.Fatalf("kill point %d: engine stopped early at offset %d", kill, got)
		}
	}
	gotDigest, gotStats := runToEnd(t, base(dir), lines)

	if gotDigest != wantDigest {
		t.Fatalf("digest after 3 kills and resumes = %s, want uninterrupted %s", gotDigest, wantDigest)
	}
	if gotStats.Processed != wantStats.Processed ||
		gotStats.Matched != wantStats.Matched ||
		gotStats.Unparsed != wantStats.Unparsed ||
		gotStats.Retrains != wantStats.Retrains {
		t.Fatalf("counters diverged:\nresumed:       %+v\nuninterrupted: %+v", gotStats, wantStats)
	}
	if gotStats.Offset != int64(len(lines)) {
		t.Fatalf("final offset = %d, want %d", gotStats.Offset, len(lines))
	}
}

// cancelAtEOF is a source that cancels the run's context as it reports the
// end of its lines.
type cancelAtEOF struct {
	io.Reader
	cancel context.CancelFunc
}

func (c cancelAtEOF) Read(p []byte) (int, error) {
	n, err := c.Reader.Read(p)
	if err == io.EOF {
		c.cancel()
	}
	return n, err
}

// TestCancelWithoutHookWritesNoCheckpoint pins the crash model on the path
// production runs, where no AfterLine hook is set and the consumer looks for
// cancellation once per popped batch: a context cancelled before the ring
// closes ends Feed with the context's error and without the closing
// checkpoint, however much of the ring the consumer still drained, and the
// next incarnation starts over from the last periodic checkpoint — here none.
func TestCancelWithoutHookWritesNoCheckpoint(t *testing.T) {
	lines := synthLines(300, 23)
	cfg := Config{
		CheckpointDir:   t.TempDir(),
		CheckpointEvery: 1 << 30,
		RetrainBatch:    24,
		Retrainer:       &groupMiner{},
	}
	wantDigest, _ := runToEnd(t, cfg, lines)

	cfg.CheckpointDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Feed(ctx, e, cancelAtEOF{lineReader(lines), cancel}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if st := e.Stats(); st.Checkpoints != 0 {
		t.Fatalf("cancelled run wrote %d checkpoints at offset %d", st.Checkpoints, st.Offset)
	}

	e, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Stats().Offset; got != 0 {
		t.Fatalf("resumed at offset %d, want 0: the cancelled run left a checkpoint", got)
	}
	if err := feedLines(context.Background(), e, lines); err != nil {
		t.Fatal(err)
	}
	if got := e.Digest(); got != wantDigest {
		t.Fatalf("digest after the cancelled run = %s, want %s", got, wantDigest)
	}
}

// TestKillAndRecoverCountsOversizedOnce pins that Oversized, like every
// cumulative counter, describes exactly the lines at or below the
// checkpointed offset: over-long lines still in flight in the ring when a
// checkpoint is taken are not in it, so the resumed Feed pushing them again
// counts each once.
func TestKillAndRecoverCountsOversizedOnce(t *testing.T) {
	lines := synthLines(200, 22)
	for i := 4; i < len(lines); i += 5 {
		lines[i] += " " + strings.Repeat("x", 100)
	}
	base := func(dir string) Config {
		return Config{
			CheckpointDir:   dir,
			MaxLineBytes:    80, // above every synthetic line, below the padded ones
			CheckpointEvery: 10,
			RetrainBatch:    24,
			Retrainer:       &groupMiner{},
		}
	}
	wantDigest, wantStats := runToEnd(t, base(t.TempDir()), lines)
	if wantStats.Oversized != 40 {
		t.Fatalf("uninterrupted run counted %d oversized lines, want 40", wantStats.Oversized)
	}

	dir := t.TempDir()
	killAt(t, base(dir), lines, 57)
	gotDigest, gotStats := runToEnd(t, base(dir), lines)
	if gotStats.Oversized != wantStats.Oversized || gotStats.Processed != wantStats.Processed {
		t.Fatalf("after kill and resume Oversized/Processed = %d/%d, want uninterrupted %d/%d",
			gotStats.Oversized, gotStats.Processed, wantStats.Oversized, wantStats.Processed)
	}
	if gotDigest != wantDigest {
		t.Fatalf("digest = %s, want %s", gotDigest, wantDigest)
	}
}

// TestKillImmediatelyAfterStartConverges covers the degenerate crash before
// any checkpoint exists: recovery is a fresh start and must still converge.
func TestKillImmediatelyAfterStartConverges(t *testing.T) {
	lines := synthLines(300, 21)
	base := func(dir string) Config {
		return Config{
			CheckpointDir:   dir,
			CheckpointEvery: 1000, // first kill lands before any periodic save
			RetrainBatch:    24,
			Retrainer:       &groupMiner{},
		}
	}
	wantDigest, _ := runToEnd(t, base(t.TempDir()), lines)

	dir := t.TempDir()
	killAt(t, base(dir), lines, 5)
	if store, err := NewStore(dir); err == nil {
		if s, i, lerr := store.Load(); lerr != nil || s != nil || i.Source != "none" {
			t.Fatalf("crash before first checkpoint left state: %+v %+v %v", s, i, lerr)
		}
	}
	gotDigest, _ := runToEnd(t, base(dir), lines)
	if gotDigest != wantDigest {
		t.Fatalf("digest = %s, want %s", gotDigest, wantDigest)
	}
}

// TestKillDuringCheckpointFallsBackToPreviousAndConverges models the
// nastiest crashes: the engine dies mid-checkpoint with the write torn. A
// torn delta tail costs that one save. A torn base — the tail lost between
// write and fsync, the rename already published — costs nothing: the chain
// is complete without it, so recovery takes the previous base plus every
// delta and resumes at the torn save's own offset. Both converge to the
// uninterrupted outcome.
func TestKillDuringCheckpointFallsBackToPreviousAndConverges(t *testing.T) {
	lines := synthLines(700, 22)
	base := func(dir string) Config {
		return Config{
			CheckpointDir:   dir,
			CheckpointEvery: 41,
			RetrainBatch:    24,
			Retrainer:       &groupMiner{},
		}
	}
	wantDigest, wantStats := runToEnd(t, base(t.TempDir()), lines)

	for _, leg := range []struct {
		name       string
		tornBase   bool
		wantFrom   string
		wantOffset int64
		wantDeltas int
	}{
		{"torn delta tail", false, "current", 2 * 41, 1},
		{"torn published base", true, "previous", 3 * 41, 2},
	} {
		t.Run(leg.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := base(dir)
			var e *Engine
			seam, saves := tearSave(3, 50)
			if leg.tornBase {
				seam.Wrap = nil
				count := seam.Hook
				seam.Hook = func(point string) error {
					if count(point); *saves == 3 {
						rebaseNext(e) // save 3 compacts the chain into a new base
					}
					return nil
				}
			}
			cfg.CheckpointSeam = seam
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cfg.AfterLine = func(lineNo int64) {
				if *saves >= 3 { // die right after the third save
					cancel()
				}
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := feedLines(ctx, e, lines); !errors.Is(err, context.Canceled) {
				t.Fatalf("torn-checkpoint run returned %v, want context.Canceled", err)
			}
			if leg.tornBase {
				if err := os.Truncate(filepath.Join(dir, currentName), 50); err != nil {
					t.Fatal(err)
				}
			}

			resumed, err := New(base(dir))
			if err != nil {
				t.Fatalf("resume after torn checkpoint: %v", err)
			}
			if s := resumed.Stats(); s.RecoveredFrom != leg.wantFrom || s.Offset != leg.wantOffset || s.DeltasSinceBase != leg.wantDeltas {
				t.Fatalf("recovered %q + %d deltas at offset %d, want %q + %d at %d",
					s.RecoveredFrom, s.DeltasSinceBase, s.Offset, leg.wantFrom, leg.wantDeltas, leg.wantOffset)
			}
			if err := feedLines(context.Background(), resumed, lines); err != nil {
				t.Fatal(err)
			}
			if gotDigest := resumed.Digest(); gotDigest != wantDigest {
				t.Fatalf("digest after torn-checkpoint recovery = %s, want %s", gotDigest, wantDigest)
			}
			if got := resumed.Stats(); got.Processed != wantStats.Processed || got.Matched != wantStats.Matched {
				t.Fatalf("counters diverged: %+v vs %+v", got, wantStats)
			}
		})
	}
}

// TestRecoveryWithMidStreamSourceEOF drives recovery through the fault
// injector's premature-EOF reader: the source ends early (clean EOF), the
// engine checkpoints, and a later run over the healthy source finishes the
// job with the same outcome as a run that never saw the fault.
func TestRecoveryWithMidStreamSourceEOF(t *testing.T) {
	lines := synthLines(400, 23)
	base := func(dir string) Config {
		return Config{
			CheckpointDir:   dir,
			CheckpointEvery: 31,
			RetrainBatch:    24,
			Retrainer:       &groupMiner{},
		}
	}
	wantDigest, _ := runToEnd(t, base(t.TempDir()), lines)

	dir := t.TempDir()
	e, err := New(base(dir))
	if err != nil {
		t.Fatal(err)
	}
	truncated := faultinject.NewReader(lineReader(lines), faultinject.Faults{EOFAfterLines: 150})
	if err := Feed(context.Background(), e, truncated); err != nil {
		t.Fatalf("premature EOF is a clean end of source: %v", err)
	}
	if got := e.Stats().Offset; got != 150 {
		t.Fatalf("offset after truncated source = %d, want 150", got)
	}

	gotDigest, gotStats := runToEnd(t, base(dir), lines)
	if gotDigest != wantDigest {
		t.Fatalf("digest = %s, want %s", gotDigest, wantDigest)
	}
	if gotStats.Offset != int64(len(lines)) {
		t.Fatalf("final offset = %d, want %d", gotStats.Offset, len(lines))
	}
}
