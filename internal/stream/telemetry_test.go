package stream

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"logparse/internal/faultinject"
	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// TestEngineTelemetryCheckpointAccounting runs the engine with an enabled
// telemetry handle and checks three things: the handle holds only the
// instruments Stats lacks (no count is kept twice), the canonical digest is
// identical to a telemetry-off run over the same source (instrumentation is
// a behavioral no-op), and every checkpoint is one duration observation and
// one delta, however many files it wrote.
func TestEngineTelemetryCheckpointAccounting(t *testing.T) {
	lines := synthLines(800, 7)

	// Telemetry-off reference run.
	offCfg := testConfig(t)
	offEng, err := New(offCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), offEng, lines); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	cfg := testConfig(t)
	cfg.Telemetry = tel
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), eng, lines); err != nil {
		t.Fatal(err)
	}

	if off, on := offEng.Digest(), eng.Digest(); off != on {
		t.Errorf("digest differs with telemetry on: off=%s on=%s", off, on)
	}

	s := eng.Stats()
	snap := tel.Snapshot()
	if s.Processed == 0 || s.Retrains == 0 || s.Checkpoints == 0 {
		t.Fatalf("degenerate run: %+v", s)
	}
	var names []string
	for name := range snap.Counters {
		names = append(names, name)
	}
	for name := range snap.Histograms {
		names = append(names, name)
	}
	sort.Strings(names)
	want := []string{
		"stream.breaker.transitions",
		"stream.checkpoint.bases", "stream.checkpoint.bytes", "stream.checkpoint.corrupt_resets",
		"stream.checkpoint.deltas", "stream.checkpoint.dirsync_errors", "stream.checkpoint.seconds",
		"stream.eventstore.failures", "stream.retrain.seconds",
		"stream.wal.failures", "stream.wal.truncate.errors",
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("engine instruments = %q, want only what Stats lacks: %q", names, want)
	}
	if got := snap.Counters["stream.checkpoint.deltas"]; got != uint64(s.Checkpoints) {
		t.Errorf("stream.checkpoint.deltas = %d, want one per checkpoint (%d)", got, s.Checkpoints)
	}
	if got := snap.Counters["stream.checkpoint.bases"]; got == 0 || got >= uint64(s.Checkpoints) {
		t.Errorf("stream.checkpoint.bases = %d, want at least the first save's and fewer than the %d checkpoints", got, s.Checkpoints)
	}
	onDisk := int64(0)
	files, _ := filepath.Glob(filepath.Join(cfg.CheckpointDir, currentName+"*"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			onDisk += fi.Size()
		}
	}
	if got := int64(snap.Counters["stream.checkpoint.bytes"]); got < onDisk || onDisk == 0 {
		t.Errorf("stream.checkpoint.bytes = %d, want at least the %d bytes on disk (bases and deltas)", got, onDisk)
	}
	if got := snap.Histograms["stream.retrain.seconds"].Count; got != uint64(s.Retrains+s.RetrainFailures) {
		t.Errorf("stream.retrain.seconds count = %d, want %d", got, s.Retrains+s.RetrainFailures)
	}
	if got := snap.Histograms["stream.checkpoint.seconds"].Count; got != uint64(s.Checkpoints+s.CheckpointErrors) {
		t.Errorf("stream.checkpoint.seconds count = %d, want %d", got, s.Checkpoints+s.CheckpointErrors)
	}
}

// TestEngineTelemetryBreakerTransitions drives the breaker through
// closed → open → half-open → closed with a failing-then-recovering
// retrainer and checks the transition counter follows the state Stats
// reports.
func TestEngineTelemetryBreakerTransitions(t *testing.T) {
	tel := telemetry.New()
	miner := &groupMiner{}
	miner.setFail(true)

	// Step-advancing fake clock: every engine clock read moves time forward
	// a twentieth of the cooldown, so cooldowns elapse deterministically
	// within a run.
	var clockMu sync.Mutex
	now := time.Unix(0, 0)
	fakeNow := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		now = now.Add(breakerCooldown / 20)
		return now
	}
	cfg := testConfig(t)
	cfg.Telemetry = tel
	cfg.Retrainer = miner
	cfg.Now = fakeNow

	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), eng, synthLines(600, 3)); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().Breaker; got != "open" {
		t.Fatalf("breaker = %s, want open after repeated failures", got)
	}
	openTransitions := tel.Snapshot().Counters["stream.breaker.transitions"]
	if openTransitions == 0 {
		t.Fatal("no breaker transitions recorded while tripping")
	}

	// Recover: stream more lines through a resumed engine; once the
	// cooldown elapses the half-open probe succeeds and the breaker closes.
	miner.setFail(false)
	cfg2 := cfg
	cfg2.CheckpointDir = cfg.CheckpointDir // resume from the same state
	eng2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), eng2, synthLines(1400, 3)); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats().Breaker; got != "closed" {
		t.Fatalf("breaker = %s, want closed after recovery", got)
	}
	if got := tel.Snapshot().Counters["stream.breaker.transitions"]; got <= openTransitions {
		t.Fatalf("transitions = %d, want > %d (half-open and close not counted)", got, openTransitions)
	}
}

// TestEngineTelemetryCheckpointErrors checks the error path: a checkpoint
// save that fails is counted in Stats.CheckpointErrors and still lands in
// the duration histogram.
func TestEngineTelemetryCheckpointErrors(t *testing.T) {
	tel := telemetry.New()
	cfg := testConfig(t)
	cfg.Telemetry = tel
	cfg.CheckpointEvery = -1 // only explicit checkpoints
	diskFull := false
	cfg.CheckpointSeam.Wrap = func(f *os.File) seglog.File {
		c := faultinject.NewWALCrashFile(f)
		c.TearAfter = 0
		c.Armed = func() bool { return diskFull }
		return c
	}
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), eng, synthLines(100, 5)); err != nil {
		t.Fatal(err)
	}
	diskFull = true // the next save's first byte is refused
	if err := eng.Checkpoint(); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("checkpoint on a refusing disk = %v, want the injected failure", err)
	}
	s := eng.Stats()
	if s.CheckpointErrors != 1 {
		t.Fatalf("CheckpointErrors = %d, want 1", s.CheckpointErrors)
	}
	want := uint64(s.Checkpoints + 1)
	if got := tel.Snapshot().Histograms["stream.checkpoint.seconds"].Count; got != want {
		t.Fatalf("stream.checkpoint.seconds count = %d, want %d (failures observed too)", got, want)
	}
}
