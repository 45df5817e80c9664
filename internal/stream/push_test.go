package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/telemetry"
)

// pushCfg is the base config for push-mode tests: lines arrive via
// PushBatch, deterministic toy retrainer.
func pushCfg(dir string) Config {
	return Config{
		CheckpointDir: dir,
		RingCapacity:  64,
		RetrainBatch:  64,
		Retrainer:     &groupMiner{minSupport: 3},
	}
}

// serveAsync starts Serve in the background and returns a channel carrying
// its result.
func serveAsync(ctx context.Context, eng *Engine) <-chan error {
	errCh := make(chan error, 1)
	go func() { errCh <- eng.Serve(ctx) }()
	_ = eng.WaitServing(ctx)
	return errCh
}

// byteLines converts string lines to the [][]byte form PushBatch takes.
func byteLines(lines []string) [][]byte {
	out := make([][]byte, len(lines))
	for i, l := range lines {
		out[i] = []byte(l)
	}
	return out
}

// pushAll pushes lines in fixed-size batches, summing the results.
func pushAll(t *testing.T, eng *Engine, lines []string, batch int) PushResult {
	t.Helper()
	var total PushResult
	for i := 0; i < len(lines); i += batch {
		end := i + batch
		if end > len(lines) {
			end = len(lines)
		}
		res, err := eng.PushBatch(context.Background(), byteLines(lines[i:end]))
		if err != nil {
			t.Fatalf("PushBatch at %d: %v", i, err)
		}
		total.Accepted += res.Accepted
		total.Skipped += res.Skipped
		total.Shed += res.Shed
	}
	return total
}

// TestPushServeMatchesFileRun proves the push-mode determinism contract:
// the same lines delivered via PushBatch converge to the digest of Feed over
// the same stream as a file.
func TestPushServeMatchesFileRun(t *testing.T) {
	lines := synthLines(3000, 7)

	fileEng, err := New(Config{
		CheckpointDir: t.TempDir(),
		RetrainBatch:  64,
		Retrainer:     &groupMiner{minSupport: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), fileEng, lines); err != nil {
		t.Fatal(err)
	}

	eng, err := New(pushCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	errCh := serveAsync(context.Background(), eng)
	res := pushAll(t, eng, lines, 100)
	if res.Accepted != len(lines) || res.Skipped != 0 || res.Shed != 0 {
		t.Fatalf("push result = %+v, want %d accepted only", res, len(lines))
	}
	eng.Stop()
	if err := <-errCh; err != nil {
		t.Fatalf("Serve = %v, want clean drain", err)
	}

	if got, want := eng.Digest(), fileEng.Digest(); got != want {
		t.Fatalf("push digest %s != file digest %s", got, want)
	}
	st := eng.Stats()
	if st.Offset != int64(len(lines)) || st.RingDepth != 0 {
		t.Fatalf("stats after drain = offset %d ring %d, want %d/0", st.Offset, st.RingDepth, len(lines))
	}
	if st.Checkpoints == 0 {
		t.Fatal("graceful Stop should have written a closing checkpoint")
	}
}

// TestPushReplayAfterCrashSkipsProcessedLines proves idempotent replay: a
// crashed (ctx-cancelled, unchecked-pointed tail) engine restarts from its
// checkpoint, the client replays the stream from the beginning, and the
// engine skips everything at or below the durable offset — converging to
// the uninterrupted digest.
func TestPushReplayAfterCrashSkipsProcessedLines(t *testing.T) {
	lines := synthLines(4000, 11)
	dir := t.TempDir()

	// Uninterrupted reference digest.
	ref, err := New(pushCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	refCh := serveAsync(context.Background(), ref)
	pushAll(t, ref, lines, 250)
	ref.Stop()
	if err := <-refCh; err != nil {
		t.Fatal(err)
	}

	// First incarnation: push part of the stream, checkpoint, then crash.
	cfg := pushCfg(dir)
	cfg.CheckpointEvery = -1 // only explicit checkpoints
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := serveAsync(ctx, eng)
	pushAll(t, eng, lines[:2500], 250)
	waitForOffset(t, eng, 2500)
	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	pushAll(t, eng, lines[2500:3000], 250) // admitted but never checkpointed
	cancel()                               // crash: the tail past the checkpoint is forgotten
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve after crash = %v, want context.Canceled", err)
	}

	// Second incarnation: restore, replay the whole stream.
	eng2, err := New(pushCfg(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats().Offset; got != 2500 {
		t.Fatalf("restored offset = %d, want 2500", got)
	}
	errCh2 := serveAsync(context.Background(), eng2)
	res := pushAll(t, eng2, lines, 250)
	if res.Skipped != 2500 || res.Accepted != len(lines)-2500 {
		t.Fatalf("replay result = %+v, want 2500 skipped / %d accepted", res, len(lines)-2500)
	}
	eng2.Stop()
	if err := <-errCh2; err != nil {
		t.Fatal(err)
	}
	if got, want := eng2.Digest(), ref.Digest(); got != want {
		t.Fatalf("resumed digest %s != uninterrupted digest %s", got, want)
	}
}

// waitForOffset blocks until the engine has processed through line n.
func waitForOffset(t *testing.T, eng *Engine, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for eng.Stats().Offset < n {
		if time.Now().After(deadline) {
			t.Fatalf("engine stuck at offset %d, want %d", eng.Stats().Offset, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPushWhenNotServing covers the ErrNotServing edges: before Serve, and
// after a graceful Stop has drained the loop.
func TestPushWhenNotServing(t *testing.T) {
	eng, err := New(pushCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushBatch(context.Background(), byteLines([]string{"x 1"})); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Push before Serve = %v, want ErrNotServing", err)
	}
	errCh := serveAsync(context.Background(), eng)
	if _, err := eng.PushBatch(context.Background(), byteLines([]string{"x 1"})); err != nil {
		t.Fatalf("Push while serving: %v", err)
	}
	eng.Stop()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
	if _, err := eng.PushBatch(context.Background(), byteLines([]string{"x 2"})); !errors.Is(err, ErrNotServing) {
		t.Fatalf("Push after Stop = %v, want ErrNotServing", err)
	}
}

// endlessSource yields synthetic lines forever — the long-running daemon
// model, where Stop is the only clean way out of Feed.
type endlessSource struct {
	buf []byte
	n   int
}

func (s *endlessSource) Read(p []byte) (int, error) {
	for len(s.buf) < len(p) {
		s.n++
		s.buf = append(s.buf, fmt.Sprintf("session %d closed after %d ms\n", s.n%977, s.n%5000)...)
	}
	n := copy(p, s.buf)
	s.buf = s.buf[n:]
	return n, nil
}

// TestStopDrainsRingBeforeClosingCheckpoint is the SIGINT-ordering
// regression test: Stop on an endless Feed must stop the pushes, drain
// every admitted line through the matcher, and write the closing checkpoint
// — returning nil, not a cancellation, and losing nothing that was
// admitted. (The old daemon path cancelled the context instead, which
// abandoned the ring and skipped the checkpoint.)
func TestStopDrainsRingBeforeClosingCheckpoint(t *testing.T) {
	eng, err := New(Config{
		CheckpointDir:   t.TempDir(),
		RingCapacity:    64,
		RetrainBatch:    64,
		CheckpointEvery: -1, // the only checkpoint must come from the Stop path
		Retrainer:       &groupMiner{minSupport: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() { errCh <- Feed(context.Background(), eng, &endlessSource{}) }()
	waitForOffset(t, eng, 500)
	eng.Stop()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("Feed after Stop = %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Feed did not return after Stop on an endless source")
	}
	st := eng.Stats()
	if st.RingDepth != 0 {
		t.Fatalf("ring depth after drain = %d, want 0", st.RingDepth)
	}
	if st.LinesIn != st.Processed+st.Shed {
		t.Fatalf("admitted lines lost: lines-in %d != processed %d + shed %d",
			st.LinesIn, st.Processed, st.Shed)
	}
	if st.Checkpoints != 1 {
		t.Fatalf("checkpoints = %d, want exactly the closing one", st.Checkpoints)
	}

	// The closing checkpoint must cover the full drained state: a resumed
	// engine starts exactly where the drain ended.
	eng2, err := New(pushCfg(eng.cfg.CheckpointDir))
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Stats().Offset != st.Offset {
		t.Fatalf("resumed offset %d != drained offset %d", eng2.Stats().Offset, st.Offset)
	}
	if got, want := eng2.Digest(), eng.Digest(); got != want {
		t.Fatalf("resumed digest %s != drained digest %s", got, want)
	}
}

// TestStopMidStreamResumesToUninterruptedDigest drives satellite coverage
// for the graceful-shutdown determinism contract on a finite stream: stop
// partway, restart, finish — the final digest equals an uninterrupted run.
func TestStopMidStreamResumesToUninterruptedDigest(t *testing.T) {
	lines := synthLines(5000, 3)
	mkCfg := func(dir string) Config {
		return Config{
			CheckpointDir: dir,
			RingCapacity:  64,
			RetrainBatch:  64,
			Retrainer:     &groupMiner{minSupport: 3},
		}
	}

	unEng, err := New(mkCfg(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), unEng, lines); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cfg := mkCfg(dir)
	eng, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg2 := cfg // the resume engine runs without the stop hook
	eng.cfg.AfterLine = func(lineNo int64) {
		if lineNo == 1500 {
			eng.Stop()
		}
	}
	if err := feedLines(context.Background(), eng, lines); err != nil {
		t.Fatalf("interrupted Feed = %v, want nil", err)
	}
	stopped := eng.Stats()
	if stopped.Offset >= int64(len(lines)) {
		t.Fatalf("Stop at line 1500 still consumed the whole stream (offset %d)", stopped.Offset)
	}
	if stopped.Offset < 1500 {
		t.Fatalf("offset after Stop = %d, want >= 1500 (admitted lines drained)", stopped.Offset)
	}

	eng2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Stats().RecoveredFrom != "current" {
		t.Fatalf("RecoveredFrom = %q, want current", eng2.Stats().RecoveredFrom)
	}
	if err := feedLines(context.Background(), eng2, lines); err != nil {
		t.Fatal(err)
	}
	if got, want := eng2.Digest(), unEng.Digest(); got != want {
		t.Fatalf("resumed digest %s != uninterrupted digest %s", got, want)
	}
}

// TestAllCorruptCheckpointsQuarantineIntoEmptyStart proves the
// corrupt-state quarantine: when every checkpoint generation fails
// verification, New succeeds with an empty engine, surfaces the typed
// *AllCorruptError through RecoveryError/Stats/telemetry, and the engine
// re-learns the stream from scratch.
func TestAllCorruptCheckpointsQuarantineIntoEmptyStart(t *testing.T) {
	lines := synthLines(3000, 5)
	dir := t.TempDir()
	mkCfg := func() Config {
		return Config{
			CheckpointDir:   dir,
			RetrainBatch:    64,
			CheckpointEvery: 1000, // several saves → both generations exist
			Retrainer:       &groupMiner{minSupport: 3},
		}
	}
	eng, err := New(mkCfg())
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), eng, lines); err != nil {
		t.Fatal(err)
	}
	corrupt(t, filepath.Join(dir, currentName))
	corrupt(t, filepath.Join(dir, prevName))

	tel := telemetry.New()
	cfg := mkCfg()
	cfg.Telemetry = tel
	eng2, err := New(cfg)
	if err != nil {
		t.Fatalf("New over all-corrupt checkpoints = %v, want quarantined empty start", err)
	}
	var all *AllCorruptError
	if !errors.As(eng2.RecoveryError(), &all) {
		t.Fatalf("RecoveryError = %v, want *AllCorruptError", eng2.RecoveryError())
	}
	var ce *CorruptError
	if !errors.As(eng2.RecoveryError(), &ce) {
		t.Fatal("AllCorruptError should unwrap to the per-generation CorruptError")
	}
	st := eng2.Stats()
	if st.RecoveredFrom != "reset" || st.RecoveryError == "" {
		t.Fatalf("stats = recovered %q / error %q, want reset + non-empty error", st.RecoveredFrom, st.RecoveryError)
	}
	if st.Offset != 0 || st.Templates != 0 {
		t.Fatalf("quarantined start not empty: offset %d, templates %d", st.Offset, st.Templates)
	}
	if got := tel.Snapshot().Counters["stream.checkpoint.corrupt_resets"]; got != 1 {
		t.Fatalf("corrupt_resets counter = %d, want 1", got)
	}

	// The quarantined engine re-learns the stream from line 1.
	if err := feedLines(context.Background(), eng2, lines); err != nil {
		t.Fatal(err)
	}
	if got := eng2.Stats().Offset; got != int64(len(lines)) {
		t.Fatalf("offset after re-learning = %d, want %d", got, len(lines))
	}
	if eng2.Digest() != eng.Digest() {
		t.Fatalf("re-learned digest %s != original digest %s", eng2.Digest(), eng.Digest())
	}
}

// TestPushBatchRingCapacityBound holds the ring's line bound exact for ring
// capacities below, at and above one batch: with the consumer held inside
// line 1, LoadShed queues exactly RingCapacity lines and sheds the rest, and
// Backpressure waits with the ring as full as whole batches make it. Either
// way RingHighWater never exceeds RingCapacity and every pushed line is
// processed or shed.
func TestPushBatchRingCapacityBound(t *testing.T) {
	for _, capacity := range []int{1, 3, ingestBatch - 1, ingestBatch, ingestBatch + 1, 1024} {
		for _, policy := range []AdmissionPolicy{LoadShed, Backpressure} {
			t.Run(fmt.Sprintf("%v/%d", policy, capacity), func(t *testing.T) {
				held, release := make(chan struct{}), make(chan struct{})
				eng, err := New(Config{
					CheckpointDir:   seedTemplates(t, t.TempDir(), allocTemplates()),
					CheckpointEvery: -1,
					RingCapacity:    capacity,
					Policy:          policy,
					Retrainer:       &groupMiner{},
					AfterLine: func(lineNo int64) {
						if lineNo == 1 {
							close(held)
							<-release
						}
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				ctx := context.Background()
				done := serveAsync(ctx, eng)
				lines := make([][]byte, 2*capacity+2*ingestBatch+5)
				for i := range lines {
					lines[i] = fmt.Appendf(nil, "connection from 10.0.0.%d port %d", i%50, i)
				}
				if _, err := eng.PushBatch(ctx, lines[:1]); err != nil {
					t.Fatal(err)
				}
				<-held
				rest := lines[1:]
				var res PushResult
				if policy == LoadShed {
					if res, err = eng.PushBatch(ctx, rest); err != nil {
						t.Fatal(err)
					}
					if res.Accepted != capacity || res.Shed != len(rest)-capacity {
						t.Fatalf("held consumer: %+v, want %d accepted and the other %d shed", res, capacity, len(rest)-capacity)
					}
					close(release)
				} else {
					pushed := make(chan PushResult, 1)
					go func() {
						res, _ := eng.PushBatch(ctx, rest)
						pushed <- res
					}()
					full := capacity - min(capacity, ingestBatch) // no further batch fits above this
					for deadline := time.Now().Add(10 * time.Second); eng.Stats().RingDepth <= full; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("ring depth %d never passed %d", eng.Stats().RingDepth, full)
						}
					}
					close(release)
					if res = <-pushed; res.Accepted != len(rest) {
						t.Fatalf("backpressure accepted %d of %d", res.Accepted, len(rest))
					}
				}
				eng.Stop()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
				st := eng.Stats()
				if st.RingHighWater > capacity || (policy == LoadShed && st.RingHighWater != capacity) {
					t.Fatalf("ring high-water %d with capacity %d", st.RingHighWater, capacity)
				}
				if st.Processed+st.Shed != int64(len(lines)) || st.Shed != int64(res.Shed) || st.Matched != st.Processed {
					t.Fatalf("%d lines pushed: processed %d, shed %d (push said %d), matched %d", len(lines), st.Processed, st.Shed, res.Shed, st.Matched)
				}
			})
		}
	}
}

// TestConcurrentPushersStopMidStream: four pushers race one engine until a
// Stop lands mid-stream. Each pusher's lines carry its own template and
// lengths that vary line to line, and it overwrites every line once
// PushBatch returns, so a batch buffer reused too early, shared by two
// owners or aliasing the caller's memory shows as a line under the wrong
// template or none. Every accepted line must be processed exactly once: the
// engine's and the event store's per-template counts equal each pusher's
// accepted total.
func TestConcurrentPushersStopMidStream(t *testing.T) {
	const pushers = 4
	tmpls := make([]core.Template, pushers)
	for p := range tmpls {
		tmpls[p] = core.Template{ID: fmt.Sprintf("P%d", p), Tokens: []string{"pusher", fmt.Sprint(p), "line", "*", "pad", "*"}}
	}
	storeDir := t.TempDir()
	eng, err := New(Config{
		CheckpointDir:   seedTemplates(t, t.TempDir(), tmpls),
		CheckpointEvery: 500,
		RingCapacity:    100,
		Retrainer:       &groupMiner{},
		EventStoreDir:   storeDir,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := serveAsync(ctx, eng)

	var accepted [pushers]int64
	errs := make(chan error, pushers)
	var wg sync.WaitGroup
	for p := range pushers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p)))
			for n := 0; ; {
				lines := make([][]byte, 1+rng.Intn(150))
				for i := range lines {
					lines[i] = fmt.Appendf(nil, "pusher %d line %d pad %s", p, n, bytes.Repeat([]byte{'a' + byte(p)}, 1+rng.Intn(300)))
					n++
				}
				res, err := eng.PushBatch(ctx, lines)
				accepted[p] += int64(res.Accepted)
				for _, l := range lines {
					for i := range l {
						l[i] = '#'
					}
				}
				if err != nil {
					if !errors.Is(err, ErrNotServing) {
						errs <- err
					}
					return
				}
			}
		}()
	}
	waitForOffset(t, eng, 5000)
	eng.Stop()
	wg.Wait()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	close(errs)
	for err := range errs {
		t.Fatalf("PushBatch: %v", err)
	}

	var total int64
	for _, n := range accepted {
		total += n
	}
	st := eng.Stats()
	if st.Processed != total || st.Matched != total || st.Shed != 0 || st.RingHighWater > 100 {
		t.Fatalf("%d lines accepted: processed %d, matched %d, shed %d, ring high-water %d", total, st.Processed, st.Matched, st.Shed, st.RingHighWater)
	}
	_, counts := eng.Result()
	stored, _ := storeCounts(t, storeDir)
	for p, n := range accepted {
		if counts[p] != n || stored[int32(p)] != n {
			t.Fatalf("pusher %d: %d lines accepted, engine counted %d, event store %d", p, n, counts[p], stored[int32(p)])
		}
	}
}
