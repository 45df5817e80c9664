package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"logparse/internal/faultinject"
	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// The kill-and-recover harness for the write-ahead log. Each scenario arms
// one of the enumerated crash points — mid-record, mid-fsync, mid-rotation,
// mid-truncation, between WAL append and ring push, and a plain kill — runs
// a push-mode engine into it, then proves the two recovery invariants:
//
//  1. zero acked-line loss: a fresh engine over the same directories, with
//     NO client replay, recovers at least every line whose PushBatch was
//     acknowledged, and its state equals a clean run over exactly the
//     recovered prefix (digest equivalence);
//  2. convergence: a full client replay after recovery converges to the
//     digest of an uninterrupted run, with the recovered prefix skipped as
//     replay duplicates.

// walCrashCtl coordinates a scenario with the harness.
type walCrashCtl struct {
	fired atomic.Bool // the scenario's crash point has triggered
}

// walCrashScenario arms one crash point on a push-mode engine config.
type walCrashScenario struct {
	name      string
	configure func(cfg *Config, ctl *walCrashCtl)
	// kill: the crash point does not itself end the incarnation (the
	// engine tolerates it); the harness cancels ctx once fired is set.
	kill bool
	// wantReplay: the scenario guarantees durable WAL records beyond the
	// final checkpoint, so recovery must re-admit at least one.
	wantReplay bool
}

func walCrashScenarios() []walCrashScenario {
	errCrash := errors.New("walrecovery_test: injected crash point")
	return []walCrashScenario{
		{
			// A write torn mid-record: the commit that crosses the tear
			// loses its suffix on disk and fails, so the batch is unacked
			// and the segment ends in a partial record.
			name: "mid-record",
			configure: func(cfg *Config, ctl *walCrashCtl) {
				var segs atomic.Int32
				cfg.WALSeam.Wrap = func(f *os.File) seglog.File {
					c := faultinject.NewWALCrashFile(f)
					if segs.Add(1) == 1 {
						c.TearAfter = 6000
					}
					return c
				}
			},
		},
		{
			// The fsync itself fails after the data reached the OS: the
			// batch is unacked but recovery may find MORE than was acked —
			// the superset shape.
			name: "mid-fsync",
			configure: func(cfg *Config, ctl *walCrashCtl) {
				var segs atomic.Int32
				cfg.WALSeam.Wrap = func(f *os.File) seglog.File {
					c := faultinject.NewWALCrashFile(f)
					if segs.Add(1) == 1 {
						c.SyncErrAt = 2
					}
					return c
				}
			},
		},
		{
			// Death between sealing the full segment and starting the next
			// one.
			name: "mid-rotation",
			configure: func(cfg *Config, ctl *walCrashCtl) {
				cfg.WALSeam.Hook = func(point string) error {
					if point == "rotate" {
						ctl.fired.Store(true)
						return errCrash
					}
					return nil
				}
			},
		},
		{
			// Death partway through deleting checkpoint-covered segments:
			// the first deletable segment is gone, later ones survive. The
			// engine tolerates a truncation failure (it is GC debt, not a
			// durability problem), so the harness kills it at that instant.
			name: "mid-truncation",
			kill: true,
			configure: func(cfg *Config, ctl *walCrashCtl) {
				cfg.CheckpointEvery = 500 // several sealed 8 KiB segments per checkpoint
				var calls atomic.Int32
				cfg.WALSeam.Hook = func(point string) error {
					if point != "truncate" {
						return nil
					}
					if calls.Add(1) >= 2 {
						ctl.fired.Store(true)
						return errCrash
					}
					return nil
				}
			},
		},
		{
			// Death between a batch's WAL appends (auto-flushed to disk by
			// the tiny buffer) and its ring admission: the log holds lines
			// the engine never processed and the client never got acked.
			name:       "append-before-ring",
			wantReplay: true,
			configure: func(cfg *Config, ctl *walCrashCtl) {
				cfg.WALBufferBytes = 256
				var calls atomic.Int32
				cfg.WALSeam.Hook = func(point string) error {
					if point == "push" && calls.Add(1) == 3 {
						ctl.fired.Store(true)
						return errCrash
					}
					return nil
				}
			},
		},
		{
			// A plain kill -9 between checkpoints: acked lines beyond the
			// last checkpoint exist only in the WAL, and recovery must
			// resurrect them without any client replay.
			name:       "kill-between-checkpoints",
			kill:       true,
			wantReplay: true,
			configure: func(cfg *Config, ctl *walCrashCtl) {
				cfg.AfterLine = func(lineNo int64) {
					if lineNo == 300 {
						ctl.fired.Store(true)
					}
				}
			},
		},
	}
}

// walTestConfig is the shared push-mode configuration: segments small
// enough to rotate under the test load, checkpoints frequent enough to
// exercise truncation.
func walTestConfig(root string) Config {
	return Config{
		CheckpointDir:   filepath.Join(root, "ckpt"),
		WALDir:          filepath.Join(root, "wal"),
		WALSegmentBytes: 8 * 1024,
		RingCapacity:    128,
		CheckpointEvery: 250,
		RetrainBatch:    64,
		Retrainer:       &groupMiner{},
	}
}

// walBatches cuts lines into PushBatch-sized [][]byte chunks.
func walBatches(lines []string, size int) [][][]byte {
	var out [][][]byte
	for i := 0; i < len(lines); i += size {
		end := i + size
		if end > len(lines) {
			end = len(lines)
		}
		out = append(out, byteLines(lines[i:end]))
	}
	return out
}

// walReferenceDigest runs a clean WAL-less engine over lines and returns
// its digest — the uninterrupted-run baseline every recovery must match.
// Digests are a pure function of processed line order (checkpoint cadence
// and WAL presence are irrelevant), so the baseline uses the same retrain
// parameters as the crash runs and nothing else matters.
func walReferenceDigest(t *testing.T, lines []string) string {
	t.Helper()
	eng, err := New(Config{
		CheckpointDir:   t.TempDir(),
		RingCapacity:    128,
		CheckpointEvery: 250,
		RetrainBatch:    64,
		Retrainer:       &groupMiner{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	if err := eng.WaitServing(ctx); err != nil {
		t.Fatalf("reference WaitServing: %v", err)
	}
	for _, b := range walBatches(lines, 64) {
		if _, err := eng.PushBatch(ctx, b); err != nil {
			t.Fatalf("reference PushBatch: %v", err)
		}
	}
	eng.Stop()
	if err := <-done; err != nil {
		t.Fatalf("reference Serve: %v", err)
	}
	return eng.Digest()
}

func TestWALCrashPointRecovery(t *testing.T) {
	lines := synthLines(2000, 77)
	fullDigest := walReferenceDigest(t, lines)

	for _, sc := range walCrashScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			root := t.TempDir()
			ctl := &walCrashCtl{}

			// Phase A: run into the armed crash point.
			cfgA := walTestConfig(root)
			sc.configure(&cfgA, ctl)
			engA, err := New(cfgA)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			serveDone := make(chan error, 1)
			go func() { serveDone <- engA.Serve(ctx) }()
			if err := engA.WaitServing(ctx); err != nil {
				t.Fatalf("WaitServing: %v", err)
			}
			if sc.kill {
				go func() {
					for !ctl.fired.Load() {
						time.Sleep(200 * time.Microsecond)
					}
					cancel()
				}()
			}
			acked := 0
			var pushErr error
			for i, b := range walBatches(lines, 64) {
				if _, pushErr = engA.PushBatch(context.Background(), b); pushErr != nil {
					break
				}
				acked = (i + 1) * 64
			}
			if acked > len(lines) {
				acked = len(lines)
			}
			if sc.kill {
				deadline := time.Now().Add(10 * time.Second)
				for !ctl.fired.Load() && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				if !ctl.fired.Load() {
					t.Fatal("crash point never fired")
				}
				cancel()
			} else if pushErr == nil {
				t.Fatal("crash point never fired: every batch was acknowledged")
			} else if !errors.As(pushErr, new(*DurableError)) {
				t.Fatalf("PushBatch error = %v, want *DurableError", pushErr)
			}
			serveErr := <-serveDone
			t.Logf("crashed: acked=%d push=%v serve=%v", acked, pushErr, serveErr)

			// Phase B: recover over the same directories with the faults
			// disarmed and NO client replay.
			engB, err := New(walTestConfig(root))
			if err != nil {
				t.Fatalf("recovery New: %v", err)
			}
			doneB := make(chan error, 1)
			go func() { doneB <- engB.Serve(context.Background()) }()
			if err := engB.WaitServing(context.Background()); err != nil {
				t.Fatalf("recovery WaitServing: %v", err)
			}
			engB.Stop()
			if err := <-doneB; err != nil {
				t.Fatalf("recovery Serve: %v", err)
			}
			stB := engB.Stats()
			if stB.Offset < int64(acked) {
				t.Fatalf("acked lines lost: recovered offset %d < acked %d", stB.Offset, acked)
			}
			if sc.wantReplay && stB.WALReplayed == 0 {
				t.Fatalf("expected WAL replay beyond the checkpoint, got none (offset %d)", stB.Offset)
			}
			if got, want := engB.Digest(), walReferenceDigest(t, lines[:stB.Offset]); got != want {
				t.Fatalf("recovered digest diverges from a clean run over the recovered prefix (offset %d)", stB.Offset)
			}
			t.Logf("recovered: offset=%d replayed=%d torn=%d corrupt=%d",
				stB.Offset, stB.WALReplayed, stB.WALTornTails, stB.WALCorruptDropped)

			// Phase C: full client replay converges to the uninterrupted
			// digest, with the recovered prefix skipped as duplicates.
			engC, err := New(walTestConfig(root))
			if err != nil {
				t.Fatalf("replay New: %v", err)
			}
			doneC := make(chan error, 1)
			go func() { doneC <- engC.Serve(context.Background()) }()
			if err := engC.WaitServing(context.Background()); err != nil {
				t.Fatalf("replay WaitServing: %v", err)
			}
			var total PushResult
			for _, b := range walBatches(lines, 64) {
				res, err := engC.PushBatch(context.Background(), b)
				if err != nil {
					t.Fatalf("replay PushBatch: %v", err)
				}
				total.Accepted += res.Accepted
				total.Skipped += res.Skipped
			}
			engC.Stop()
			if err := <-doneC; err != nil {
				t.Fatalf("replay Serve: %v", err)
			}
			if got := engC.Digest(); got != fullDigest {
				t.Fatalf("replayed digest diverges from the uninterrupted run")
			}
			if st := engC.Stats(); st.Offset != int64(len(lines)) {
				t.Fatalf("replayed offset = %d, want %d", st.Offset, len(lines))
			}
			if total.Skipped != int(stB.Offset) {
				t.Fatalf("replay skipped %d lines, want the recovered prefix %d", total.Skipped, stB.Offset)
			}
			if total.Accepted+total.Skipped != len(lines) {
				t.Fatalf("replay accounted for %d lines, want %d", total.Accepted+total.Skipped, len(lines))
			}
		})
	}
}

// TestWALSurvivesDoubleCrash layers a second kill on top of a recovered WAL:
// crash, recover partway (kill again before any checkpoint), recover again.
// The second incarnation's WAL reopen must tolerate the first repair's
// leftovers and still lose nothing acked.
func TestWALSurvivesDoubleCrash(t *testing.T) {
	lines := synthLines(1200, 31)
	fullDigest := walReferenceDigest(t, lines)
	root := t.TempDir()

	acked := 0
	for round := 0; round < 2; round++ {
		cfg := walTestConfig(root)
		ctl := &walCrashCtl{}
		stopAt := int64(300 + 400*round)
		cfg.AfterLine = func(lineNo int64) {
			if lineNo >= stopAt {
				ctl.fired.Store(true)
			}
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- eng.Serve(ctx) }()
		if err := eng.WaitServing(ctx); err != nil {
			t.Fatalf("round %d WaitServing: %v", round, err)
		}
		go func() {
			for !ctl.fired.Load() {
				time.Sleep(200 * time.Microsecond)
			}
			cancel()
		}()
		roundAcked := 0
		for i, b := range walBatches(lines, 64) {
			if _, err := eng.PushBatch(context.Background(), b); err != nil {
				break
			}
			roundAcked = (i + 1) * 64
		}
		if roundAcked > len(lines) {
			roundAcked = len(lines)
		}
		if roundAcked > acked {
			acked = roundAcked
		}
		cancel()
		<-done
	}

	eng, err := New(walTestConfig(root))
	if err != nil {
		t.Fatalf("final recovery New: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- eng.Serve(context.Background()) }()
	if err := eng.WaitServing(context.Background()); err != nil {
		t.Fatalf("final WaitServing: %v", err)
	}
	eng.Stop()
	if err := <-done; err != nil {
		t.Fatalf("final Serve: %v", err)
	}
	st := eng.Stats()
	if st.Offset < int64(acked) {
		t.Fatalf("acked lines lost across double crash: offset %d < acked %d", st.Offset, acked)
	}
	if got, want := eng.Digest(), walReferenceDigest(t, lines[:st.Offset]); got != want {
		t.Fatalf("double-crash recovery digest diverges at offset %d", st.Offset)
	}

	// And the full replay still converges.
	engR, err := New(walTestConfig(root))
	if err != nil {
		t.Fatal(err)
	}
	doneR := make(chan error, 1)
	go func() { doneR <- engR.Serve(context.Background()) }()
	if err := engR.WaitServing(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, b := range walBatches(lines, 64) {
		if _, err := engR.PushBatch(context.Background(), b); err != nil {
			t.Fatalf("replay PushBatch: %v", err)
		}
	}
	engR.Stop()
	if err := <-doneR; err != nil {
		t.Fatal(err)
	}
	if engR.Digest() != fullDigest {
		t.Fatal("double-crash replay digest diverges from the uninterrupted run")
	}
}

// TestWALOffMatchesWALOn pins behavioral neutrality: the same pushed stream
// produces identical digests and line accounting with and without a WAL.
func TestWALOffMatchesWALOn(t *testing.T) {
	lines := synthLines(1500, 9)
	run := func(walOn bool) (string, Stats) {
		cfg := Config{
			CheckpointDir:   filepath.Join(t.TempDir(), "ckpt"),
			RingCapacity:    128,
			CheckpointEvery: 250,
			RetrainBatch:    64,
			Retrainer:       &groupMiner{},
		}
		if walOn {
			cfg.WALDir = filepath.Join(t.TempDir(), "wal")
			cfg.WALSegmentBytes = 8 * 1024
		}
		eng, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan error, 1)
		go func() { done <- eng.Serve(context.Background()) }()
		if err := eng.WaitServing(context.Background()); err != nil {
			t.Fatal(err)
		}
		for _, b := range walBatches(lines, 64) {
			if _, err := eng.PushBatch(context.Background(), b); err != nil {
				t.Fatalf("PushBatch (wal=%v): %v", walOn, err)
			}
		}
		eng.Stop()
		if err := <-done; err != nil {
			t.Fatalf("Serve (wal=%v): %v", walOn, err)
		}
		return eng.Digest(), eng.Stats()
	}
	dOff, stOff := run(false)
	dOn, stOn := run(true)
	if dOff != dOn {
		t.Fatal("WAL-on digest differs from WAL-off")
	}
	if stOff.Processed != stOn.Processed || stOff.Matched != stOn.Matched ||
		stOff.Unparsed != stOn.Unparsed || stOff.Offset != stOn.Offset {
		t.Fatalf("WAL-on stats differ: off=%+v on=%+v", stOff, stOn)
	}
	if !stOn.WALEnabled || stOn.WALLastSeq != stOn.Offset {
		t.Fatalf("WAL stats inconsistent: %+v", stOn)
	}
}

// TestPushBatchWALPerLineAllocBudget is the WAL-enabled twin of
// TestPushBatchPerLineAllocBudget: append-before-admit plus group commit
// must not reintroduce per-line allocations on the push path.
func TestPushBatchWALPerLineAllocBudget(t *testing.T) {
	eng, err := New(Config{
		CheckpointDir:   seedTemplates(t, filepath.Join(t.TempDir(), "ckpt"), allocTemplates()),
		WALDir:          filepath.Join(t.TempDir(), "wal"),
		WALSegmentBytes: 1 << 30, // no rotation during measurement
		CheckpointEvery: -1,
		RingCapacity:    1024,
		Retrainer:       &groupMiner{},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- eng.Serve(ctx) }()
	if err := eng.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}

	const batchSize = 256
	lines := make([][]byte, batchSize)
	for i := range lines {
		lines[i] = []byte(fmt.Sprintf("connection from 10.0.0.%d port %d", i%50, 1000+i))
	}
	push := func() {
		res, err := eng.PushBatch(context.Background(), lines)
		if err != nil {
			t.Fatalf("PushBatch: %v", err)
		}
		if res.Accepted != batchSize {
			t.Fatalf("accepted %d of %d", res.Accepted, batchSize)
		}
	}
	for i := 0; i < 4; i++ {
		push()
	}
	perLine := testing.AllocsPerRun(30, push) / batchSize
	if perLine > 0.5 {
		t.Errorf("PushBatch with WAL: %.3f allocs per line, budget 0.5", perLine)
	}

	eng.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
}

// TestCheckpointDirSyncFailureSurfaced pins the syncDir fix: a directory
// fsync failure is counted on every occurrence and logged exactly once
// instead of being silently swallowed — and the checkpoint still succeeds.
func TestCheckpointDirSyncFailureSurfaced(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	store, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	store.dirsyncErrs = reg.Counter("stream.checkpoint.dirsync_errors")
	var logged []string
	store.logf = func(format string, args ...any) {
		logged = append(logged, fmt.Sprintf(format, args...))
	}
	// Remove the directory out from under the store: Save's temp-file write
	// fails loudly, but a bare syncDir hits exactly the swallowed path.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	store.syncDir()
	store.syncDir()
	if got := store.dirsyncErrs.Value(); got != 2 {
		t.Fatalf("dirsync_errors = %d, want 2 (counted every time)", got)
	}
	if len(logged) != 1 {
		t.Fatalf("logged %d lines, want exactly 1: %q", len(logged), logged)
	}
	if !strings.Contains(logged[0], "dirsync_errors") {
		t.Fatalf("log line does not name the counter: %q", logged[0])
	}

	// A healthy directory keeps syncDir silent.
	store2, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	store2.dirsyncErrs = reg.Counter("healthy.dirsync")
	store2.logf = func(format string, args ...any) { t.Errorf("unexpected log: "+format, args...) }
	store2.syncDir()
	if got := store2.dirsyncErrs.Value(); got != 0 {
		t.Fatalf("healthy dirsync counted %d errors", got)
	}
}
