package stream

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"logparse/internal/eventstore"
	"logparse/internal/faultinject"
	"logparse/internal/seglog"
)

// storeCounts reads the per-template event counts back out of an event
// store directory (matched + late-matched kinds, the exact quantity the
// engine's counts slice tracks).
func storeCounts(t *testing.T, dir string) (map[int32]int64, eventstore.ReadInfo) {
	t.Helper()
	r, info, err := eventstore.OpenReader(dir, eventstore.ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader: %v", err)
	}
	counts, _, err := r.TemplateCounts(eventstore.Query{})
	if err != nil {
		t.Fatalf("TemplateCounts: %v", err)
	}
	return counts, info
}

// requireCountParity asserts the store reproduces the engine's per-
// template counts exactly — the conformance bridge between the counting
// pipeline and the event history.
func requireCountParity(t *testing.T, e *Engine, storeDir string) {
	t.Helper()
	_, counts := e.Result()
	got, _ := storeCounts(t, storeDir)
	var want int64
	for i, c := range counts {
		want += c
		if got[int32(i)] != c {
			t.Fatalf("template %d: store has %d events, engine counted %d", i, got[int32(i)], c)
		}
	}
	var total int64
	for _, c := range got {
		total += c
	}
	if total != want {
		t.Fatalf("store total %d != engine matched total %d", total, want)
	}
}

// TestEventStoreOnMatchesOff runs the same stream with and without the
// event store: digests and counting stats must be identical (recording is
// behavior-neutral), and the store must reproduce the engine's template
// counts exactly.
func TestEventStoreOnMatchesOff(t *testing.T) {
	lines := synthLines(2000, 31)

	run := func(events bool) (*Engine, string) {
		cfg := testConfig(t)
		dir := ""
		if events {
			dir = t.TempDir()
			cfg.EventStoreDir = dir
			cfg.EventStoreBlockBytes = 2048 // several blocks
		}
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := feedLines(context.Background(), e, lines); err != nil {
			t.Fatal(err)
		}
		return e, dir
	}

	off, _ := run(false)
	on, dir := run(true)

	if off.Digest() != on.Digest() {
		t.Fatalf("digests diverge: store-off %s, store-on %s", off.Digest(), on.Digest())
	}
	so, sn := off.Stats(), on.Stats()
	if so.Processed != sn.Processed || so.Matched != sn.Matched || so.Unparsed != sn.Unparsed || so.Empty != sn.Empty {
		t.Fatalf("stats diverge: off %+v on %+v", so, sn)
	}
	if !sn.EventStoreEnabled || sn.EventsAppended == 0 || sn.EventStoreBlocks == 0 {
		t.Fatalf("store-on stats not surfaced: %+v", sn)
	}
	if sn.EventStoreError != "" {
		t.Fatalf("store error after clean run: %s", sn.EventStoreError)
	}
	requireCountParity(t, on, dir)

	// The event stream accounts for every counting decision: each
	// non-empty processed line produced exactly one process-time event,
	// plus one late event per line matched out of the retrain buffer.
	r, _, err := eventstore.OpenReader(dir, eventstore.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[eventstore.Kind]int64{}
	if _, err := r.Scan(eventstore.Query{IncludeUnmatched: true}, func(ev eventstore.Event) error {
		kinds[ev.Kind]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := kinds[eventstore.KindMatched] + kinds[eventstore.KindUnmatched]; got != sn.Processed-sn.Empty {
		t.Fatalf("process-time events %d != processed-empty %d", got, sn.Processed-sn.Empty)
	}
	if got := kinds[eventstore.KindMatched] + kinds[eventstore.KindLateMatched]; got != sn.Matched {
		t.Fatalf("matched-kind events %d != Matched %d", got, sn.Matched)
	}
}

// TestEventStorePushMode drives the store through Serve/PushBatch — the
// server's ingest path — and checks parity plus the checkpoint-coordinated
// finalize.
func TestEventStorePushMode(t *testing.T) {
	lines := synthLines(1500, 32)
	cfg := testConfig(t)
	dir := t.TempDir()
	cfg.EventStoreDir = dir
	cfg.EventStoreBlockBytes = 2048
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- e.Serve(ctx) }()
	if err := e.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}
	var batch [][]byte
	for i, line := range lines {
		batch = append(batch, []byte(line))
		if len(batch) == 100 || i == len(lines)-1 {
			if _, err := e.PushBatch(ctx, batch); err != nil {
				t.Fatalf("PushBatch: %v", err)
			}
			batch = batch[:0]
		}
	}
	e.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}
	requireCountParity(t, e, dir)
	if st := e.Stats(); st.EventStoreLastSeq != st.Offset {
		t.Fatalf("store lastSeq %d != offset %d after closing checkpoint", st.EventStoreLastSeq, st.Offset)
	}
}

// TestEventStoreCrashRecovery mirrors the WAL crash suite: a block write
// torn mid-image must end the run with a typed *DurableError and no
// saved checkpoint covering the gap; a rebuilt engine over the same
// directories repairs the store, realigns it, and replaying the stream
// converges to the uninterrupted digest with exact count parity.
func TestEventStoreCrashRecovery(t *testing.T) {
	lines := synthLines(2000, 33)

	// Reference: uninterrupted run.
	refCfg := testConfig(t)
	refDir := t.TempDir()
	refCfg.EventStoreDir = refDir
	refCfg.EventStoreBlockBytes = 1024
	ref, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := feedLines(context.Background(), ref, lines); err != nil {
		t.Fatal(err)
	}

	// Crash run: shared checkpoint + store dirs, tear the byte stream a
	// few blocks into the stream.
	ckptDir := t.TempDir()
	storeDir := t.TempDir()
	crashCfg := testConfig(t)
	crashCfg.CheckpointDir = ckptDir
	crashCfg.EventStoreDir = storeDir
	crashCfg.EventStoreBlockBytes = 1024
	crashCfg.EventStoreSeam.Wrap = func(f *os.File) seglog.File {
		cf := faultinject.NewWALCrashFile(f)
		cf.TearAfter = 5000
		return cf
	}
	e, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	err = feedLines(context.Background(), e, lines)
	var esErr *DurableError
	if !errors.As(err, &esErr) {
		t.Fatalf("crash run returned %v, want *DurableError", err)
	}
	if !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("EventStoreError does not unwrap to the injected crash: %v", err)
	}
	st := e.Stats()
	if st.EventStoreError == "" {
		t.Fatalf("store failure not surfaced in stats: %+v", st)
	}

	// Resume: fresh engine, no faults. Recovery repairs the torn block,
	// aligns to the restored checkpoint, and replay converges.
	resumeCfg := testConfig(t)
	resumeCfg.CheckpointDir = ckptDir
	resumeCfg.EventStoreDir = storeDir
	resumeCfg.EventStoreBlockBytes = 1024
	r, err := New(resumeCfg)
	if err != nil {
		t.Fatal(err)
	}
	rst := r.Stats()
	if rst.EventStoreTornTails == 0 {
		t.Fatalf("resume did not repair a torn tail: %+v", rst)
	}
	if err := feedLines(context.Background(), r, lines); err != nil {
		t.Fatalf("resume run: %v", err)
	}
	if r.Digest() != ref.Digest() {
		t.Fatalf("resumed digest %s != reference %s", r.Digest(), ref.Digest())
	}
	requireCountParity(t, r, storeDir)
}

// TestEventStoreFinalizeCrashRefusesCheckpoint pins the fail-stop
// contract at the finalize crash point: when the store cannot fsync, the
// engine must NOT save a checkpoint (one would permanently cover the
// event gap), and the typed error must surface from Checkpoint.
func TestEventStoreFinalizeCrashRefusesCheckpoint(t *testing.T) {
	lines := synthLines(300, 34)
	cfg := testConfig(t)
	cfg.CheckpointEvery = -1 // only the final checkpoint
	storeDir := t.TempDir()
	cfg.EventStoreDir = storeDir
	boom := errors.New("injected finalize failure")
	cfg.EventStoreSeam.Hook = func(point string) error {
		if point == "finalize" {
			return boom
		}
		return nil
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = feedLines(context.Background(), e, lines)
	var esErr *DurableError
	if !errors.As(err, &esErr) || !errors.Is(err, boom) {
		t.Fatalf("Feed = %v, want *DurableError wrapping the hook failure", err)
	}
	st := e.Stats()
	if st.Checkpoints != 0 {
		t.Fatalf("a checkpoint was saved over a failed store: %+v", st)
	}
	if st.CheckpointErrors == 0 {
		t.Fatalf("refused checkpoint not counted: %+v", st)
	}
}

// TestProcessMatchedPathAllocsEventStore is the alloc-budget twin of
// TestProcessMatchedPathAllocs with the event store on: the per-line cost
// of recording is one slot in the engine's reused event buffer, appended
// to the store's reused block buffer once per batch, with reallocation and
// block-seal costs amortized far below one allocation per line. It then
// consumes full ring batches across checkpoints that fall mid-batch: each
// checkpoint's Finalize must already hold every event through its line.
func TestProcessMatchedPathAllocsEventStore(t *testing.T) {
	const every = 100 // not a multiple of ingestBatch
	eng, err := New(Config{
		CheckpointDir:   seedTemplates(t, t.TempDir(), allocTemplates()),
		CheckpointEvery: -1,
		Retrainer:       &groupMiner{},
		EventStoreDir:   t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	it := item{lineNo: 1, data: []byte("connection from 10.0.0.9 port 1042")}
	fn := func() { consumeOne(ctx, eng, it) }
	for i := 0; i < 300; i++ {
		fn() // warm the token buffer, block builder and counts map
	}
	if allocs := testing.AllocsPerRun(500, fn); allocs > 0.1 {
		t.Errorf("matched path with event store: %v allocs/op, budget 0.1", allocs)
	}
	if st := eng.Stats(); st.EventsAppended == 0 {
		t.Fatalf("no events recorded: %+v", st)
	}

	if err := eng.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng.cfg.CheckpointEvery = every
	base := eng.offset
	var batch batch
	for b := 0; b < 10; b++ {
		batch.n, batch.buf = 0, batch.buf[:0]
		for i := range ingestBatch {
			batch.add(eng.offset+int64(i)+1, it.data, false)
		}
		covered := base + (eng.offset+ingestBatch-base)/every*every
		if err := eng.consumeBatch(ctx, &batch); err != nil {
			t.Fatal(err)
		}
		st := eng.Stats()
		if st.EventsAppended != st.Processed || st.EventStoreLastSeq < covered {
			t.Fatalf("batch %d: %d events appended for %d lines, finalized through seq %d, want a checkpoint at %d to cover its events",
				b, st.EventsAppended, st.Processed, st.EventStoreLastSeq, covered)
		}
	}
	if st := eng.Stats(); st.Checkpoints < 5 {
		t.Fatalf("%d checkpoints across the batches, want ≥ 5", st.Checkpoints)
	}
}

// TestEventTimeIsPerBatch pins Event.Time's definition: the consumer reads
// the clock once per popped ring batch and every event of the batch carries
// that instant. The first line's AfterLine hook holds the consumer until the
// whole push is in the ring, so every later pop is a full ingestBatch.
func TestEventTimeIsPerBatch(t *testing.T) {
	const n = 10 * ingestBatch
	cfg := testConfig(t)
	cfg.RingBytes = 1 << 20 // the whole push
	cfg.CheckpointEvery = -1
	seedTemplates(t, cfg.CheckpointDir, allocTemplates())
	cfg.EventStoreDir = t.TempDir()
	var ticks int64 // a clock that moves on every read
	var mu sync.Mutex
	cfg.Now = func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		ticks++
		return time.Unix(0, ticks*int64(time.Millisecond))
	}
	pushed := make(chan struct{})
	cfg.AfterLine = func(lineNo int64) {
		if lineNo == 1 {
			<-pushed
		}
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	done := make(chan error, 1)
	go func() { done <- e.Serve(ctx) }()
	if err := e.WaitServing(ctx); err != nil {
		t.Fatal(err)
	}
	batch := make([][]byte, n)
	for i := range batch {
		batch[i] = []byte(fmt.Sprintf("connection from 10.0.0.%d port %d", i%50, 1000+i))
	}
	if _, err := e.PushBatch(ctx, batch); err != nil {
		t.Fatalf("PushBatch: %v", err)
	}
	close(pushed)
	e.Stop()
	if err := <-done; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	r, _, err := eventstore.OpenReader(cfg.EventStoreDir, eventstore.ReaderOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var events, stamps, run, longest int
	var prev eventstore.Event
	if _, err := r.Scan(eventstore.Query{}, func(ev eventstore.Event) error {
		if ev.Time < prev.Time || ev.Seq != prev.Seq+1 {
			t.Fatalf("event %+v after %+v: seq must step by one, time must not decrease", ev, prev)
		}
		if ev.Time != prev.Time {
			stamps++
			run = 0
		}
		run++
		longest = max(longest, run)
		events++
		prev = ev
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if events != n || longest != ingestBatch {
		t.Fatalf("%d events, longest run of one stamp %d; want %d and exactly ingestBatch = %d", events, longest, n, ingestBatch)
	}
	// The held first pop, then full batches; a split one costs one more.
	if maxStamps := 2 + n/ingestBatch; stamps > maxStamps {
		t.Fatalf("%d distinct stamps over %d events, want at most %d (one clock read per batch)", stamps, n, maxStamps)
	}
}
