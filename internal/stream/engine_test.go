package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/faultinject"
)

// memOpen returns a re-openable source over fixed lines.
func memOpen(lines []string) func() (io.ReadCloser, error) {
	data := strings.Join(lines, "\n") + "\n"
	return func() (io.ReadCloser, error) {
		return io.NopCloser(strings.NewReader(data)), nil
	}
}

// synthLines produces a deterministic stream mixing a few stable event
// shapes with rare one-off noise lines.
func synthLines(n int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, 0, n)
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			lines = append(lines, fmt.Sprintf("connection from 10.0.0.%d port %d", rng.Intn(50), 1000+rng.Intn(100)))
		case 4, 5, 6:
			lines = append(lines, fmt.Sprintf("block blk_%d replicated to %d nodes", rng.Int63n(1<<40), 1+rng.Intn(3)))
		case 7, 8:
			lines = append(lines, fmt.Sprintf("session %d closed after %d ms", rng.Intn(9000), rng.Intn(5000)))
		default:
			lines = append(lines, fmt.Sprintf("oneoff event %d %d %d", rng.Int63(), rng.Int63(), rng.Int63()))
		}
	}
	return lines
}

// groupMiner is a deterministic toy retrainer: it groups lines by (token
// count, first token), keeps groups with at least minSupport members, and
// wildcards every position whose values differ within the group.
type groupMiner struct {
	minSupport int

	mu    sync.Mutex
	fail  bool
	calls int
}

func (m *groupMiner) Name() string { return "group-miner" }

func (m *groupMiner) setFail(fail bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.fail = fail
}

func (m *groupMiner) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func (m *groupMiner) Retrain(ctx context.Context, lines []string) ([]core.Template, error) {
	m.mu.Lock()
	m.calls++
	fail := m.fail
	m.mu.Unlock()
	if fail {
		return nil, errors.New("group-miner: injected failure")
	}
	groups := make(map[string][][]string)
	for _, line := range lines {
		toks := core.Tokenize(line)
		if len(toks) == 0 {
			continue
		}
		key := fmt.Sprintf("%d|%s", len(toks), toks[0])
		groups[key] = append(groups[key], toks)
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var tmpls []core.Template
	minSupport := m.minSupport
	if minSupport <= 0 {
		minSupport = 2
	}
	for _, k := range keys {
		members := groups[k]
		if len(members) < minSupport {
			continue
		}
		tokens := append([]string(nil), members[0]...)
		for _, mem := range members[1:] {
			for i, tok := range mem {
				if tokens[i] != tok {
					tokens[i] = "*"
				}
			}
		}
		tmpls = append(tmpls, core.Template{ID: k, Tokens: tokens})
	}
	return tmpls, nil
}

// fakeClock is a manually advanced engine clock.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func testConfig(t *testing.T, lines []string) Config {
	t.Helper()
	return Config{
		Open:            memOpen(lines),
		CheckpointDir:   t.TempDir(),
		RingCapacity:    64,
		CheckpointEvery: 50,
		RetrainBatch:    32,
		Retrainer:       &groupMiner{},
	}
}

func TestEngineBasicIngest(t *testing.T) {
	lines := synthLines(600, 1)
	cfg := testConfig(t, lines)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Processed != int64(len(lines)) {
		t.Fatalf("Processed = %d, want %d", s.Processed, len(lines))
	}
	if s.Offset != int64(len(lines)) {
		t.Fatalf("Offset = %d, want %d", s.Offset, len(lines))
	}
	if s.Templates == 0 || s.Retrains == 0 {
		t.Fatalf("no templates mined: %+v", s)
	}
	if s.Matched == 0 {
		t.Fatal("no lines matched after retraining")
	}
	// Every processed line lands in exactly one bucket.
	accounted := s.Matched + s.Unparsed + s.Empty + s.UnmatchedDropped + int64(s.UnmatchedBuffered)
	if accounted != s.Processed {
		t.Fatalf("accounting: matched %d + unparsed %d + empty %d + dropped %d + buffered %d != processed %d",
			s.Matched, s.Unparsed, s.Empty, s.UnmatchedDropped, s.UnmatchedBuffered, s.Processed)
	}
	if s.Checkpoints == 0 {
		t.Fatal("no checkpoint was written")
	}
	if s.Shed != 0 {
		t.Fatalf("Shed = %d under backpressure", s.Shed)
	}
}

// TestEngineDigestDeterministicAcrossFreshRuns runs the default retrainer
// (SLCT) twice over one stream: not only the digest but every
// template's index, ID and tokens — what checkpoints and the event store
// record — must come out the same.
func TestEngineDigestDeterministicAcrossFreshRuns(t *testing.T) {
	lines := synthLines(500, 2)
	var digests []string
	var results [][]core.Template
	for i := 0; i < 2; i++ {
		cfg := testConfig(t, lines)
		cfg.Retrainer = nil
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		digests = append(digests, e.Digest())
		tmpls, _ := e.Result()
		results = append(results, tmpls)
	}
	if digests[0] != digests[1] {
		t.Fatalf("two identical fresh runs diverged: %s vs %s", digests[0], digests[1])
	}
	if len(results[0]) < 2 {
		t.Fatalf("degenerate run: %d templates", len(results[0]))
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Fatalf("two identical fresh runs ordered their templates differently:\n%v\n%v", results[0], results[1])
	}
}

// TestEngineInitialTemplatesMatcherOnly: templates the checkpoint already
// holds match from the first line, with no retrain.
func TestEngineInitialTemplatesMatcherOnly(t *testing.T) {
	lines := []string{
		"login user alice ok",
		"login user bob ok",
		"login user carol ok",
	}
	cfg := testConfig(t, lines)
	seedTemplates(t, cfg.CheckpointDir, []core.Template{{ID: "T1", Tokens: []string{"login", "user", "*", "ok"}}})
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Matched != 3 || s.Retrains != 0 || s.UnmatchedBuffered != 0 {
		t.Fatalf("seeded matcher run: %+v", s)
	}
	_, counts := e.Result()
	if len(counts) != 1 || counts[0] != 3 {
		t.Fatalf("counts = %v, want [3]", counts)
	}
}

// TestMatcherBuildOrderIsTemplateOrder pins what process relies on to index
// e.counts with a matcher index: after any number of retrains the matcher's
// live templates are exactly e.templates, in order, with no retired slot —
// which holds because the engine rebuilds with match.New and never calls
// Matcher.Remove.
func TestMatcherBuildOrderIsTemplateOrder(t *testing.T) {
	cfg := testConfig(t, synthLines(600, 5))
	cfg.RetrainBatch = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Retrains < 2 {
		t.Fatalf("want several retrains, got %+v", e.Stats())
	}
	got := e.matcher.Templates()
	if len(got) != len(e.templates) {
		t.Fatalf("matcher lists %d live templates, engine holds %d", len(got), len(e.templates))
	}
	for i, tm := range e.templates {
		if idx, ok := e.matcher.MatchIndex(tm.Tokens); !ok || idx != i || !reflect.DeepEqual(got[i], tm) {
			t.Errorf("template %d %q: matcher index %d (%v), listed as %q", i, tm.Tokens, idx, ok, got[i].Tokens)
		}
	}
}

func TestEngineLoadShedKeepsMemoryBoundedAndCountsSheds(t *testing.T) {
	lines := synthLines(400, 3)
	cfg := testConfig(t, lines)
	cfg.Policy = LoadShed
	cfg.RingCapacity = 4
	cfg.AfterLine = func(int64) { time.Sleep(200 * time.Microsecond) } // slow consumer
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Shed == 0 {
		t.Fatal("overloaded shed run dropped nothing; consumer not slow enough?")
	}
	if s.RingHighWater > 4 {
		t.Fatalf("ring high-water %d exceeds capacity 4", s.RingHighWater)
	}
	if got := s.Processed + s.Shed; got != int64(len(lines)) {
		t.Fatalf("processed %d + shed %d = %d, want every source line (%d) accounted",
			s.Processed, s.Shed, got, len(lines))
	}
	if s.LinesIn != int64(len(lines)) {
		t.Fatalf("LinesIn = %d, want %d", s.LinesIn, len(lines))
	}
}

func TestEngineBreakerTripsThenRecovers(t *testing.T) {
	lines := synthLines(600, 4)
	miner := &groupMiner{}
	miner.setFail(true)
	clock := newFakeClock()
	cfg := testConfig(t, lines)
	cfg.Retrainer = miner
	cfg.RetrainBatch = 16
	cfg.MaxUnmatched = 32
	cfg.Now = clock.Now
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}

	var once sync.Once
	cfg2 := &e.cfg
	cfg2.AfterLine = func(lineNo int64) {
		if lineNo == 300 {
			// Half the stream in: the breaker has tripped. Let it cool down
			// and heal the miner so the probe succeeds.
			once.Do(func() {
				if st := e.Stats(); st.Breaker != "open" {
					t.Errorf("breaker = %s at line 300, want open", st.Breaker)
				}
				miner.setFail(false)
				clock.Advance(2 * time.Minute)
			})
		}
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.RetrainFailures < breakerThreshold {
		t.Fatalf("RetrainFailures = %d, want >= threshold", s.RetrainFailures)
	}
	if s.Retrains == 0 || s.Breaker != "closed" {
		t.Fatalf("breaker did not recover: retrains=%d state=%s", s.Retrains, s.Breaker)
	}
	if s.UnmatchedDropped == 0 {
		t.Fatal("failed retrains should have shed batch heads")
	}
	if s.UnmatchedBuffered > cfg.MaxUnmatched {
		t.Fatalf("unmatched buffer %d exceeds cap %d", s.UnmatchedBuffered, cfg.MaxUnmatched)
	}
}

func TestEngineBreakerOpenCapsUnmatchedBuffer(t *testing.T) {
	lines := synthLines(500, 5)
	miner := &groupMiner{}
	miner.setFail(true)
	cfg := testConfig(t, lines)
	cfg.Retrainer = miner
	cfg.RetrainBatch = 16
	cfg.MaxUnmatched = 40
	cfg.Now = newFakeClock().Now // the cooldown never elapses
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Breaker != "open" {
		t.Fatalf("breaker = %s, want open (miner always fails)", s.Breaker)
	}
	if s.RetrainFailures != breakerThreshold {
		t.Fatalf("RetrainFailures = %d, want exactly the threshold (breaker then blocks)", s.RetrainFailures)
	}
	if s.UnmatchedBuffered > 40 {
		t.Fatalf("unmatched buffer %d exceeds cap 40 with the breaker open", s.UnmatchedBuffered)
	}
	if s.UnmatchedDropped == 0 {
		t.Fatal("cap enforcement should have dropped oldest unmatched lines")
	}
}

func TestEngineRestoresFromPreviousWhenCurrentIsTorn(t *testing.T) {
	lines := synthLines(300, 6)
	cfg := testConfig(t, lines)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	rebaseNext(e)
	if err := e.Checkpoint(); err != nil { // second base → prev exists
		t.Fatal(err)
	}

	// Tear the current generation the way a crash between write and fsync
	// would: keep a prefix, lose the tail, leave the file in place.
	cur := filepath.Join(cfg.CheckpointDir, currentName)
	data, err := os.ReadFile(cur)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(cur, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}

	e2, err := New(cfg)
	if err != nil {
		t.Fatalf("New should fall back to the previous generation: %v", err)
	}
	if got := e2.Stats().RecoveredFrom; got != "previous" {
		t.Fatalf("RecoveredFrom = %q, want previous", got)
	}
	if e2.Stats().Offset != int64(len(lines)) {
		t.Fatalf("restored offset = %d, want %d", e2.Stats().Offset, len(lines))
	}
}

// TestEngineTornCheckpointWriterProducesFallback: a checkpoint whose write is
// cut short fails loudly, recovery falls back to the save before it, and the
// engine's next checkpoint repairs the log and lands.
func TestEngineTornCheckpointWriterProducesFallback(t *testing.T) {
	lines := synthLines(200, 7)
	cfg := testConfig(t, lines)
	cfg.CheckpointEvery = -1 // only explicit checkpoints
	cfg.CheckpointSeam, _ = tearSave(2, 60)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil { // final checkpoint = healthy save 1
		t.Fatal(err)
	}
	if err := e.Checkpoint(); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("torn checkpoint = %v, want the injected crash", err)
	}
	if s := e.Stats(); s.Checkpoints != 1 || s.CheckpointErrors != 1 || s.CheckpointGen != 1 {
		t.Fatalf("after the torn save: %d checkpoints, %d errors, generation %d; want 1, 1, 1", s.Checkpoints, s.CheckpointErrors, s.CheckpointGen)
	}

	reopen := func() Stats {
		t.Helper()
		e2, err := New(Config{Open: cfg.Open, CheckpointDir: cfg.CheckpointDir, Retrainer: &groupMiner{}})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := e2.Digest(), e.Digest(); got != want {
			t.Fatalf("recovered digest %s, want the engine's %s", got, want)
		}
		return e2.Stats()
	}
	if s := reopen(); s.RecoveredFrom != "current" || s.CheckpointGen != 1 || s.DeltasSinceBase != 0 || s.Offset != int64(len(lines)) {
		t.Fatalf("recovered %q generation %d + %d deltas at offset %d, want the first save", s.RecoveredFrom, s.CheckpointGen, s.DeltasSinceBase, s.Offset)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after the torn one: %v", err)
	}
	if s := reopen(); s.CheckpointGen != 2 || s.DeltasSinceBase != 1 {
		t.Fatalf("recovered generation %d + %d deltas, want 2 and 1", s.CheckpointGen, s.DeltasSinceBase)
	}
}

func TestEngineOversizedLinesCounted(t *testing.T) {
	lines := []string{
		"short line one",
		"long " + strings.Repeat("x", 300),
		"short line two",
	}
	cfg := testConfig(t, lines)
	cfg.MaxLineBytes = 64
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Oversized != 1 || s.Processed != 3 {
		t.Fatalf("Oversized = %d Processed = %d, want 1/3", s.Oversized, s.Processed)
	}
}

// TestEngineRetrainsOverMaxLineBytesLine: a line truncated at MaxLineBytes
// is an ordinary unmatched line to the default retrainer — the batch it
// lands in retrains, and nothing is shed.
func TestEngineRetrainsOverMaxLineBytesLine(t *testing.T) {
	lines := []string{strings.Repeat("x", core.DefaultMaxLineBytes+6)}
	for i := 1; i <= 5; i++ {
		lines = append(lines, fmt.Sprintf("alpha beta %d", i))
	}
	for i := 1; i <= 20; i++ {
		lines = append(lines, fmt.Sprintf("gamma delta %d", i))
	}
	cfg := testConfig(t, lines)
	cfg.Retrainer = nil
	cfg.RetrainBatch = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if s := e.Stats(); s.RetrainFailures != 0 || s.UnmatchedDropped != 0 || s.Oversized != 1 {
		t.Fatalf("RetrainFailures = %d UnmatchedDropped = %d Oversized = %d, want 0/0/1",
			s.RetrainFailures, s.UnmatchedDropped, s.Oversized)
	}
}

func TestEngineRunTwiceSequentiallyResumes(t *testing.T) {
	lines := synthLines(100, 8)
	cfg := testConfig(t, lines)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	first := e.Stats().Processed
	if err := e.Run(context.Background()); err != nil { // source replays; all lines already processed
		t.Fatal(err)
	}
	if got := e.Stats().Processed; got != first {
		t.Fatalf("second Run reprocessed lines: %d -> %d", first, got)
	}
}

func TestEngineRejectsConcurrentRun(t *testing.T) {
	lines := synthLines(2000, 9)
	cfg := testConfig(t, lines)
	cfg.AfterLine = func(int64) { time.Sleep(50 * time.Microsecond) }
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- e.Run(ctx) }()
	time.Sleep(5 * time.Millisecond)
	if err := e.Run(ctx); !errors.Is(err, ErrAlreadyRunning) {
		t.Fatalf("second concurrent Run = %v, want ErrAlreadyRunning", err)
	}
	cancel()
	<-done
}

func TestEngineStatsReadableDuringRun(t *testing.T) {
	lines := synthLines(1500, 10)
	cfg := testConfig(t, lines)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = e.Stats()
			}
		}
	}()
	if err := e.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
}
