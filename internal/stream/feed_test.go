package stream

import (
	"context"
	"errors"
	"testing"

	"logparse/internal/faultinject"
)

// TestFeedOnServingEngineIsAlreadyRunning: Feed never pushes into an
// incarnation it did not start — on an engine already serving it returns
// ErrAlreadyRunning, and the serving engine processes nothing of its reader.
func TestFeedOnServingEngineIsAlreadyRunning(t *testing.T) {
	lines := synthLines(300, 12)
	eng, err := New(pushCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	errCh := serveAsync(context.Background(), eng)
	pushAll(t, eng, lines[:100], 50)
	waitForOffset(t, eng, 100)
	if err := feedLines(context.Background(), eng, lines); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("Feed on a serving engine = %v, want ErrAlreadyRunning", err)
	}
	eng.Stop()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Processed; got != 100 {
		t.Fatalf("Processed = %d after the refused Feed, want the 100 pushed lines", got)
	}
}

// TestFeedReadErrorCheckpointsThenResumes: a reader that fails mid-stream
// stops the engine through its clean path — every line read before the
// failure is processed and the closing checkpoint is written — and Feed
// returns the read error. A later Feed over the healthy source resumes from
// that checkpoint to the digest of a run that never saw the fault.
func TestFeedReadErrorCheckpointsThenResumes(t *testing.T) {
	lines := synthLines(400, 24)
	cfg := func(dir string) Config {
		return Config{CheckpointDir: dir, CheckpointEvery: 1 << 30, RetrainBatch: 24, Retrainer: &groupMiner{}}
	}
	wantDigest, _ := runToEnd(t, cfg(t.TempDir()), lines)

	dir := t.TempDir()
	e, err := New(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	failing := faultinject.NewReader(lineReader(lines), faultinject.Faults{ErrAfterBytes: 5000})
	err = Feed(context.Background(), e, failing)
	var inj *faultinject.InjectedError
	if !errors.As(err, &inj) {
		t.Fatalf("Feed over a failing reader = %v, want the injected read error", err)
	}
	st := e.Stats()
	if st.Checkpoints != 1 || st.Offset == 0 || st.Offset >= int64(len(lines)) {
		t.Fatalf("after the read error: %d checkpoints at offset %d, want the closing one mid-stream", st.Checkpoints, st.Offset)
	}

	resumed, err := New(cfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := resumed.Stats().Offset; got != st.Offset {
		t.Fatalf("resumed at offset %d, want the closing checkpoint's %d", got, st.Offset)
	}
	if err := feedLines(context.Background(), resumed, lines); err != nil {
		t.Fatal(err)
	}
	if got := resumed.Digest(); got != wantDigest {
		t.Fatalf("digest after the read error and resume = %s, want %s", got, wantDigest)
	}
}
