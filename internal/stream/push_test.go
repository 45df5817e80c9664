package stream

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// pushCfg is the base config for push-mode tests: lines arrive via
// PushBatch, deterministic toy retrainer.
func pushCfg(dir string) Config {
	return Config{
		CheckpointDir: dir,
		RingBytes:     4 << 10,
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
		RingBytes:       4 << 10,
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
			RingBytes:     4 << 10,
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
// verification, New succeeds with an empty engine, surfaces each base's
// *seglog.CorruptError through RecoveryError/Stats/telemetry, and the
// engine re-learns the stream from scratch.
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
	var ce *seglog.CorruptError
	if !errors.As(eng2.RecoveryError(), &ce) || ce.Log != "checkpoint" {
		t.Fatalf("RecoveryError = %v, want the bases' *seglog.CorruptError", eng2.RecoveryError())
	}
	st := eng2.Stats()
	if st.RecoveredFrom != "reset" || st.RecoveryError != eng2.RecoveryError().Error() {
		t.Fatalf("stats = recovered %q / error %q, want reset + the recovery error", st.RecoveredFrom, st.RecoveryError)
	}
	for _, name := range []string{currentName, prevName} {
		if path := filepath.Join(dir, name); !strings.Contains(st.RecoveryError, path) {
			t.Fatalf("RecoveryError %q does not name the corrupt base %s", st.RecoveryError, path)
		}
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

// TestPushBatchRingCapacityBound holds the ring's byte bound exact for
// budgets of one batch's charge plus n lines of one length, n below, at and
// above a full batch. With the consumer held inside line 1, LoadShed queues
// exactly the lines that fit — n of them up to a full batch — and sheds
// none that would have fit; Backpressure waits with the ring as full as
// whole batches make it. LoadShed never charges past the budget,
// Backpressure past one batch over an empty ring, and every pushed line is
// processed or shed.
func TestPushBatchRingCapacityBound(t *testing.T) {
	const lineLen = 40
	for _, n := range []int{1, 3, ingestBatch - 1, ingestBatch, ingestBatch + 1, 1024} {
		budget := batchCharge + n*lineLen
		fullBatch := batchCharge + ingestBatch*lineLen
		for _, policy := range []AdmissionPolicy{LoadShed, Backpressure} {
			t.Run(fmt.Sprintf("%v/%d", policy, n), func(t *testing.T) {
				held, release := make(chan struct{}), make(chan struct{})
				eng, err := New(Config{
					CheckpointDir:   seedTemplates(t, t.TempDir(), allocTemplates()),
					CheckpointEvery: -1,
					RingBytes:       budget,
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
				lines := make([][]byte, 2*n+2*ingestBatch+5)
				for i := range lines {
					lines[i] = fmt.Appendf(nil, "connection from 10.0.0.%02d port %09d", i%50, i)
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
					st := eng.Stats()
					if res.Accepted+res.Shed != len(rest) || st.RingDepth != res.Accepted ||
						(n <= ingestBatch && res.Accepted != n) {
						t.Fatalf("held consumer: %+v with %d lines queued, want all %d accepted or shed (%d accepted when n ≤ %d)", res, st.RingDepth, len(rest), n, ingestBatch)
					}
					if st.RingBytes > budget || budget-st.RingBytes >= batchCharge+lineLen {
						t.Fatalf("%d of %d bytes charged: a shed line would have fit", st.RingBytes, budget)
					}
					close(release)
				} else {
					pushed := make(chan PushResult, 1)
					go func() {
						res, _ := eng.PushBatch(ctx, rest)
						pushed <- res
					}()
					full := budget - fullBatch // no further batch fits above this
					for deadline := time.Now().Add(10 * time.Second); eng.Stats().RingBytes <= full; time.Sleep(time.Millisecond) {
						if time.Now().After(deadline) {
							t.Fatalf("ring bytes %d never passed %d", eng.Stats().RingBytes, full)
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
				bound := budget
				if policy == Backpressure {
					bound = max(budget, fullBatch)
				}
				if st.RingBytesHighWater > bound {
					t.Fatalf("ring bytes high-water %d with a budget of %d", st.RingBytesHighWater, budget)
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
		RingBytes:       64 << 10, // above any one batch here
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
	if st.Processed != total || st.Matched != total || st.Shed != 0 || st.RingBytesHighWater > 64<<10 {
		t.Fatalf("%d lines accepted: processed %d, matched %d, shed %d, ring bytes high-water %d", total, st.Processed, st.Matched, st.Shed, st.RingBytesHighWater)
	}
	_, counts := eng.Result()
	stored, _ := storeCounts(t, storeDir)
	for p, n := range accepted {
		if counts[p] != n || stored[int32(p)] != n {
			t.Fatalf("pusher %d: %d lines accepted, engine counted %d, event store %d", p, n, counts[p], stored[int32(p)])
		}
	}
}

// heapInUse is the live heap after two collections, the second clearing
// what sync.Pool kept through the first.
func heapInUse() int64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

// heldConsumer builds an engine under policy with a ring of budget bytes
// whose consumer holds inside line 1 until release is called, serves it,
// and returns once line 1 is held. A test that ends early releases the
// consumer and stops the engine on cleanup, so a blocked pusher returns.
func heldConsumer(t *testing.T, policy AdmissionPolicy, budget int) (eng *Engine, release func(), done <-chan error) {
	t.Helper()
	held, unblock := make(chan struct{}), make(chan struct{})
	release = sync.OnceFunc(func() { close(unblock) })
	eng, err := New(Config{
		CheckpointDir:   seedTemplates(t, t.TempDir(), allocTemplates()),
		CheckpointEvery: -1,
		RingBytes:       budget,
		Policy:          policy,
		Retrainer:       &groupMiner{},
		AfterLine: func(lineNo int64) {
			if lineNo == 1 {
				close(held)
				<-unblock
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		eng.Stop()
	})
	done = serveAsync(context.Background(), eng)
	if _, err := eng.PushBatch(context.Background(), [][]byte{[]byte("connection from 10.0.0.1 port 1")}); err != nil {
		t.Fatal(err)
	}
	<-held
	return eng, release, done
}

// pushHeld pushes lines into a held engine and returns the heap growth
// with everything it admitted in flight: under LoadShed once PushBatch
// returns, under Backpressure once the ring's bytes pass full and the
// pusher has had time to fill the batch it then waits with.
func pushHeld(t *testing.T, eng *Engine, lines [][]byte, full int) int64 {
	t.Helper()
	before := heapInUse()
	if eng.cfg.Policy == LoadShed {
		if _, err := eng.PushBatch(context.Background(), lines); err != nil {
			t.Fatal(err)
		}
	} else {
		go eng.PushBatch(context.Background(), lines)
		for deadline := time.Now().Add(10 * time.Second); eng.Stats().RingBytes <= full; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("ring bytes %d never passed %d", eng.Stats().RingBytes, full)
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
	grown := heapInUse() - before
	runtime.KeepAlive(lines)
	return grown
}

// TestPushBatchHeldConsumerMemory holds the consumer inside line 1 and
// pushes lines of 1 KiB, 512 KiB and MaxLineBytes under both policies: the
// bytes the ring charges and the heap the push grows by each stay within
// the budget plus one batch, however long the lines. (A ring of 1,024
// lines held ≈ 600 MiB of 512 KiB lines.)
func TestPushBatchHeldConsumerMemory(t *testing.T) {
	const budget = 256 << 10
	for _, c := range []struct{ size, lines int }{{1 << 10, 2000}, {512 << 10, 400}, {core.DefaultMaxLineBytes, 8}} {
		size := c.size
		oneBatch := batchCharge + max(size, min(ingestBatch*size, batchKeepBytes))
		for _, policy := range []AdmissionPolicy{LoadShed, Backpressure} {
			t.Run(fmt.Sprintf("%v/%d", policy, size), func(t *testing.T) {
				eng, release, done := heldConsumer(t, policy, budget)
				line := fmt.Appendf(nil, "connection from %s port 1", bytes.Repeat([]byte("x"), size-len("connection from  port 1")))
				lines := make([][]byte, c.lines)
				for i := range lines {
					lines[i] = line
				}
				grown := pushHeld(t, eng, lines, budget-oneBatch)
				st := eng.Stats()
				t.Logf("%d lines of %d bytes: heap grew %d, ring high-water %d bytes, %d lines; bound %d", len(lines), size, grown, st.RingBytesHighWater, st.RingHighWater, budget+oneBatch)
				if grown > int64(budget+oneBatch) || st.RingBytesHighWater > budget+oneBatch {
					t.Fatalf("heap grew %d bytes and the ring charged up to %d, with a budget of %d and a batch of %d", grown, st.RingBytesHighWater, budget, oneBatch)
				}
				release()
				eng.Stop()
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestPushBatchTinyLineFlood holds the consumer and makes 10,000 PushBatch
// calls of one 1-byte line each, under both policies: each call is a batch
// of its own, and batchCharge keeps the bytes charged within the budget and
// the heap's growth within the budget plus one batch. (Counted in lines, a
// ring of 1,024 took 1,024 such batches, ≈ 1.8 MB of line tables.)
func TestPushBatchTinyLineFlood(t *testing.T) {
	const budget, calls = 256 << 10, 10000
	for _, policy := range []AdmissionPolicy{LoadShed, Backpressure} {
		t.Run(policy.String(), func(t *testing.T) {
			eng, release, done := heldConsumer(t, policy, budget)
			line := [][]byte{[]byte("x")}
			before := heapInUse()
			pushed := make(chan PushResult, 1)
			go func() {
				var total PushResult
				for range calls {
					res, err := eng.PushBatch(context.Background(), line)
					if err != nil {
						t.Error(err)
						break
					}
					total.Accepted += res.Accepted
					total.Shed += res.Shed
				}
				pushed <- total
			}()
			var res PushResult
			if policy == LoadShed {
				res = <-pushed
			} else {
				for deadline := time.Now().Add(10 * time.Second); eng.Stats().RingBytes+batchCharge+1 <= budget; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatalf("ring bytes %d never filled %d", eng.Stats().RingBytes, budget)
					}
				}
				time.Sleep(20 * time.Millisecond)
			}
			grown := heapInUse() - before
			st := eng.Stats()
			if st.RingBytesHighWater > budget || grown > budget+batchCharge+1 {
				t.Fatalf("%d one-line batches queued: ring charged up to %d bytes, heap grew %d, budget %d", st.RingHighWater, st.RingBytesHighWater, grown, budget)
			}
			release()
			if policy == Backpressure {
				res = <-pushed
			}
			eng.Stop()
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if st := eng.Stats(); res.Accepted+res.Shed != calls || st.Processed+st.Shed != calls+1 {
				t.Fatalf("%+v from %d calls; processed %d, shed %d", res, calls, st.Processed, st.Shed)
			}
		})
	}
}
