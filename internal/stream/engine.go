package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"logparse/internal/core"
	"logparse/internal/eventstore"
	"logparse/internal/match"
	"logparse/internal/parsers/slct"
	"logparse/internal/robust"
	"logparse/internal/stream/wal"
)

// ErrAlreadyRunning is returned by Run when the engine is mid-run.
var ErrAlreadyRunning = errors.New("stream: engine is already running")

// Engine is the crash-safe streaming ingester. Build one with New (which
// restores the newest trustworthy checkpoint), drive it with Run, inspect
// it with Stats/Result, and persist it on demand with Checkpoint.
//
// Determinism contract: under the Backpressure policy everything downstream
// of admission is a pure function of the source line order, so resuming
// from any checkpoint replays into exactly the state an uninterrupted run
// reaches. Under LoadShed the set of kept lines depends on timing and the
// contract is waived (that is the point of shedding).
type Engine struct {
	cfg   Config
	store *Store
	now   func() time.Time
	tm    engineTelemetry

	// eventTime stamps every event of the batch being consumed. Only the
	// consumer goroutine touches it.
	eventTime int64

	mu        sync.Mutex // guards everything below
	matcher   *match.Matcher
	templates []core.Template
	counts    []int64
	index     map[string]int // rendered template → index
	tokBuf    [][]byte       // consumer's reusable token buffer
	unmatched []string
	offset    int64
	ctrs      Counters
	breaker   *breaker

	// online is the learn-per-line parser in online-parser mode (nil in
	// retrain mode); onlineDirty marks e.templates stale relative to it.
	online      OnlineParser
	onlineDirty bool

	// savedTmpls and savedCounts mark the template indices founded or
	// generalised, and the counts moved, since the last durable save — what
	// the next checkpoint delta carries. They are cleared only once that
	// delta is on disk, so a failed save loses nothing. delta is its
	// reusable record.
	savedTmpls, savedCounts dirtySet
	delta                   delta

	sinceCkpt     int
	checkpoints   int64
	ckptErrors    int64
	lastCkpt      time.Time
	haveCkpt      bool
	recoveredFrom string
	recoveryErr   error // non-nil after a corrupt-reset start (*AllCorruptError)
	ring          *ring
	running       bool
	serveEnded    bool           // the last incarnation has returned (WaitServing stops waiting)
	walReplayed   int64          // WAL records re-admitted at Serve start, process lifetime
	replay        sync.WaitGroup // the serving incarnation's WAL replay goroutine
	walErr        error          // the WAL failure that ended the current incarnation

	// wal is the push-mode write-ahead log (nil when Config.WALDir is
	// empty); walInfo is what opening it found and repaired. Both are
	// immutable after New; the WAL itself is internally locked.
	wal     *wal.WAL
	walInfo wal.OpenInfo

	// events is the parsed-event store (nil when Config.EventStoreDir is
	// empty); eventsInfo/eventsAlign record what opening and aligning it
	// found. events is immutable after New; its mutable state lives under
	// e.mu with the rest of the engine.
	events         *eventstore.Store
	eventsInfo     eventstore.OpenInfo
	eventsAlign    eventstore.AlignInfo
	eventsAppended int64 // events appended this process
	eventsErr      error // the store failure that ended the incarnation

	// Push-mode admission state (Serve/PushBatch). pushMu is separate from
	// mu because a flush can block on a full ring while the consumer needs
	// mu to process. push.ring is the serving incarnation's ring, nil while
	// no Serve loop is admitting.
	pushMu   sync.Mutex
	push     admitter
	pushSeq  int64 // lines submitted to this incarnation, in push order
	pushSkip int64 // lines at or below this offset are replay duplicates
}

// New builds an engine, restoring the newest trustworthy checkpoint from
// cfg.CheckpointDir (falling back from a corrupt current generation to the
// previous one). When every existing generation is corrupt, the engine
// starts empty and quarantines the damage as a typed *AllCorruptError,
// surfaced through RecoveryError, Stats and telemetry — in a shared
// multi-tenant service one tenant's rotted checkpoints must degrade that
// tenant, not crash the fleet. Config.Open may be nil for push-mode-only
// engines (Serve/PushBatch); Run requires it.
func New(cfg Config) (*Engine, error) {
	if cfg.RingCapacity <= 0 {
		cfg.RingCapacity = 1024
	}
	if cfg.CheckpointEvery == 0 {
		cfg.CheckpointEvery = 5000
	}
	if cfg.RetrainBatch <= 0 {
		cfg.RetrainBatch = 256
	}
	if cfg.MaxUnmatched <= 0 {
		cfg.MaxUnmatched = 4 * cfg.RetrainBatch
	}
	if cfg.MaxUnmatched < cfg.RetrainBatch {
		cfg.MaxUnmatched = cfg.RetrainBatch
	}
	if cfg.MaxLineBytes <= 0 {
		cfg.MaxLineBytes = core.DefaultMaxLineBytes
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	if cfg.Online == nil && cfg.Retrainer == nil {
		rt, err := NewRetrainer(robust.Policy{}, nil, slct.Options{})
		if err != nil {
			return nil, err
		}
		cfg.Retrainer = rt
	}
	store, err := NewStore(cfg.CheckpointDir)
	if err != nil {
		return nil, err
	}
	store.seam = cfg.CheckpointSeam

	e := &Engine{
		cfg:    cfg,
		store:  store,
		now:    cfg.Now,
		index:  make(map[string]int),
		online: cfg.Online,
		tm:     newEngineTelemetry(cfg.Telemetry),
	}
	e.push.e = e
	store.bytes, store.bases, store.deltas = e.tm.ckptBytes, e.tm.ckptBases, e.tm.ckptDeltas
	// The checkpoint dirsync fix (see Store.syncDir): surface directory-
	// fsync failures instead of swallowing them.
	store.dirsyncErrs = e.tm.dirsyncErrors

	if cfg.WALDir != "" {
		w, winfo, err := wal.Open(wal.Options{
			Dir:          cfg.WALDir,
			SegmentBytes: cfg.WALSegmentBytes,
			BufferBytes:  cfg.WALBufferBytes,
			Sync:         cfg.WALSync,
			Seam:         cfg.WALSeam,
			Telemetry:    cfg.Telemetry,
			Now:          cfg.Now,
		})
		if err != nil {
			return nil, fmt.Errorf("stream: open wal: %w", err)
		}
		e.wal = w
		e.walInfo = winfo
	}

	st, info, err := store.Load()
	if err != nil {
		var all *AllCorruptError
		if !errors.As(err, &all) {
			return nil, err
		}
		// Every generation on disk failed verification: start empty,
		// keep the typed error for the operator instead of crashing.
		st = nil
		info = LoadInfo{Source: "reset"}
		e.recoveryErr = all
		e.tm.corruptResets.Inc()
	}
	e.recoveredFrom = ""
	if info.Source == "current" || info.Source == "previous" || info.Source == "reset" {
		e.recoveredFrom = info.Source
	}
	if st != nil {
		if err := e.restore(st); err != nil {
			return nil, err
		}
	} else {
		e.breaker = newBreaker(0, false, e.now())
	}
	if cfg.EventStoreDir != "" {
		es, esInfo, err := eventstore.Open(eventstore.Options{
			Dir:        cfg.EventStoreDir,
			BlockBytes: cfg.EventStoreBlockBytes,
			Seam:       cfg.EventStoreSeam,
			Telemetry:  cfg.Telemetry,
		})
		if err != nil {
			return nil, fmt.Errorf("stream: open event store: %w", err)
		}
		// The restart handshake: blocks beyond the restored checkpoint
		// offset describe lines the resumed engine will process (and
		// re-emit) again, so they are dropped now rather than duplicated.
		ai, aerr := es.AlignTo(e.offset)
		if aerr != nil {
			es.Close()
			return nil, fmt.Errorf("stream: align event store: %w", aerr)
		}
		e.events, e.eventsInfo, e.eventsAlign = es, esInfo, ai
	}
	return e, nil
}

// restore rebuilds in-memory state from a checkpoint.
func (e *Engine) restore(st *State) error {
	if e.online != nil {
		return e.restoreOnline(st)
	}
	if st.Online != nil {
		return fmt.Errorf("stream: checkpoint was written in online-parser mode (%s); configure Config.Online to resume it", st.Online.Parser)
	}
	tmpls := make([]core.Template, len(st.Templates))
	counts := make([]int64, len(st.Templates))
	for i, t := range st.Templates {
		tmpls[i] = core.Template{ID: t.ID, Tokens: append([]string(nil), t.Tokens...)}
		counts[i] = t.Count
	}
	if err := e.adoptTemplates(tmpls); err != nil {
		return fmt.Errorf("stream: checkpoint templates: %w", err)
	}
	e.counts = counts
	e.unmatched = append([]string(nil), st.Unmatched...)
	e.offset = st.Offset
	e.ctrs = st.Counters
	e.breaker = newBreaker(st.BreakerFailures, st.BreakerOpen, e.now())
	return nil
}

// restoreOnline rebuilds online-parser-mode state: the learner restores its
// own serialised snapshot, and the checkpoint's per-group count list must be
// exactly as long as the restored learner's template list. A checkpoint that
// also carries the rendered templates (every one written before the
// snapshot became the only copy) must agree with the learner string by
// string too — or the counts would be attributed to the wrong groups.
func (e *Engine) restoreOnline(st *State) error {
	if st.Online == nil {
		return fmt.Errorf("stream: checkpoint was written in retrain mode; it cannot resume under an online parser")
	}
	if st.Online.Parser != e.online.Name() {
		return fmt.Errorf("stream: checkpoint online parser %q differs from configured %q", st.Online.Parser, e.online.Name())
	}
	if err := e.online.Restore(st.Online.Data); err != nil {
		return fmt.Errorf("stream: restore online parser: %w", err)
	}
	tmpls := e.online.Templates()
	if len(tmpls) != len(st.Templates) {
		return fmt.Errorf("stream: restored online parser has %d templates, checkpoint lists %d", len(tmpls), len(st.Templates))
	}
	counts := make([]int64, len(st.Templates))
	for i, t := range st.Templates {
		if t.Tokens != nil && tmpls[i].String() != strings.Join(t.Tokens, " ") {
			return fmt.Errorf("stream: restored online template %d (%q) diverges from checkpoint (%q)",
				i, tmpls[i].String(), strings.Join(t.Tokens, " "))
		}
		counts[i] = t.Count
	}
	e.templates = tmpls
	e.counts = counts
	e.offset = st.Offset
	e.ctrs = st.Counters
	e.breaker = newBreaker(st.BreakerFailures, st.BreakerOpen, e.now())
	return nil
}

// adoptTemplates installs a template set (deduplicated by rendered string)
// and rebuilds the matcher.
func (e *Engine) adoptTemplates(tmpls []core.Template) error {
	e.templates = nil
	e.counts = nil
	e.index = make(map[string]int, len(tmpls))
	for _, t := range tmpls {
		key := t.String()
		if _, dup := e.index[key]; dup {
			continue
		}
		e.index[key] = len(e.templates)
		e.templates = append(e.templates, core.Template{
			ID:     t.ID,
			Tokens: append([]string(nil), t.Tokens...),
		})
		e.counts = append(e.counts, 0)
	}
	return e.rebuildMatcher()
}

// rebuildMatcher refreshes the trie from e.templates.
func (e *Engine) rebuildMatcher() error {
	if len(e.templates) == 0 {
		e.matcher = nil
		return nil
	}
	m, err := match.New(e.templates)
	if err != nil {
		return err
	}
	e.matcher = m
	return nil
}

// begin opens one Run or Serve incarnation: it claims the running flag
// (ErrAlreadyRunning while another incarnation holds it), installs a fresh
// ring that ctx's end aborts — waking every blocked ring operation — and
// returns the ring, the restored offset and the epilogue its caller defers.
func (e *Engine) begin(ctx context.Context) (r *ring, offset int64, end func(), err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.running {
		return nil, 0, nil, ErrAlreadyRunning
	}
	e.running = true
	e.serveEnded = false
	r = newRing(e.cfg.RingCapacity)
	e.ring = r
	unwatch := context.AfterFunc(ctx, r.abort)
	return r, e.offset, func() {
		unwatch()
		// Abort BEFORE taking pushMu: a pusher blocked mid-batch in a
		// flush is holding pushMu, and after a panic unwound the
		// consumer nobody is left to free a ring slot — the abort is what
		// wakes it to release the lock. (Locking first deadlocks the
		// unwind against the blocked pusher.) It equally wakes a file
		// producer still blocked on the ring, and stops a WAL replay still
		// in flight; waiting for that goroutine before clearing push.ring
		// keeps a late publication from leaking a dead incarnation's ring.
		r.abort()
		e.replay.Wait()
		e.pushMu.Lock()
		e.push.ring = nil
		e.pushMu.Unlock()
		e.mu.Lock()
		e.running = false
		e.serveEnded = true
		e.mu.Unlock()
	}, nil
}

// Run tails the source until it ends cleanly or Stop drains it (final
// checkpoint, nil return), the source fails (state checkpointed, error
// returned — a later Run resumes), or ctx ends (NO checkpoint:
// cancellation models a crash, so everything after the last checkpoint is
// deliberately forgotten). Graceful shutdowns call Stop, which stops the
// producer, drains every admitted line, and only then lets the closing
// checkpoint happen — no admitted line is lost to a SIGINT.
func (e *Engine) Run(ctx context.Context) error {
	if e.cfg.Open == nil {
		return fmt.Errorf("stream: Config.Open is required for Run (use Serve for push mode)")
	}
	r, startOffset, end, err := e.begin(ctx)
	if err != nil {
		return err
	}
	defer end()

	prodErr := make(chan error, 1)
	go e.produce(ctx, r, startOffset, prodErr)

	if err := e.consume(ctx, r); err != nil {
		return err // crash-style stop: no checkpoint
	}

	var srcErr error
	select {
	case srcErr = <-prodErr:
	default:
	}
	if err := e.Checkpoint(); err != nil {
		if srcErr != nil {
			return fmt.Errorf("%w (and final checkpoint failed: %v)", srcErr, err)
		}
		return err
	}
	return srcErr
}

// consume drains the ring until it closes cleanly (nil — the source ended
// or Stop was called and every admitted line has been processed) or ctx
// ends (ctx.Err(), the crash path). Cancellation is looked for once per
// popped batch — ctx.Err is a mutex round trip, and a cancelled ring stops
// handing out batches anyway — and after every line only behind an AfterLine
// hook, which is what hard-stops an engine between two particular lines.
func (e *Engine) consume(ctx context.Context, r *ring) error {
	var batch [ingestBatch]item
	abandon := func(rest []item) error {
		// Like the ring abandons its buffer.
		for j := range rest {
			rest[j].release()
			rest[j] = item{}
		}
		return ctx.Err()
	}
	for {
		n, ok := r.popBatch(batch[:])
		if ctx.Err() != nil {
			return abandon(batch[:n])
		}
		if !ok {
			return nil // clean drain
		}
		if e.events != nil {
			// One clock read per popped batch, not per line: an event's time
			// is the instant its batch was dequeued (eventstore.Event.Time).
			e.eventTime = e.now().UnixNano()
		}
		for i := 0; i < n; i++ {
			it := batch[i]
			batch[i] = item{}
			due := e.process(ctx, it)
			it.release()
			if e.cfg.AfterLine != nil {
				e.cfg.AfterLine(it.lineNo)
				if ctx.Err() != nil {
					return abandon(batch[i+1 : n])
				}
			}
			if due {
				e.mu.Lock()
				e.checkpointLocked()
				e.mu.Unlock()
			}
		}
	}
}

// produce tails the source into the ring, skipping the first startOffset
// lines (already durably processed). Line numbering excludes empty lines
// and is therefore identical across replays. Lines are read as views into
// the bufio buffer (core.ReadLineInto), copied once into pooled arenas,
// and admitted ingestBatch at a time.
func (e *Engine) produce(ctx context.Context, r *ring, startOffset int64, prodErr chan<- error) {
	defer r.close()
	rc, err := e.cfg.Open()
	if err != nil {
		prodErr <- fmt.Errorf("stream: open source: %w", err)
		return
	}
	defer rc.Close()
	br := bufio.NewReaderSize(rc, 64*1024)
	adm := admitter{e: e, ring: r}
	defer adm.close()
	var lineNo int64
	for {
		if ctx.Err() != nil {
			return
		}
		raw, oversized, rerr := core.ReadLineInto(br, nil, e.cfg.MaxLineBytes)
		done := errors.Is(rerr, io.EOF)
		if rerr != nil && !done {
			adm.flush(e.cfg.Policy)
			prodErr <- fmt.Errorf("stream: read source: %w", rerr)
			return
		}
		if len(raw) > 0 || oversized {
			lineNo++
			if lineNo > startOffset {
				if adm.add(lineNo, raw, oversized) {
					// A stopped ring (Stop or abort) ends the producer.
					if _, _, ok := adm.flush(e.cfg.Policy); !ok {
						return
					}
				}
			}
		}
		if done {
			adm.flush(e.cfg.Policy)
			return
		}
	}
}

// process handles one admitted line: match it, or buffer it and possibly
// retrain. Retrain failures are absorbed by the breaker. The matched path
// is allocation-free (pinned by TestProcessMatchedPathAllocs): content
// extraction and tokenisation stay on it.data's bytes in the engine's
// reusable token buffer, the trie walk compares byte slices in place, and
// the matcher's build order equals e.templates order so the returned index
// addresses e.counts directly (the engine only ever builds the matcher with
// match.New and never calls Matcher.Remove, which retires indices; pinned by
// TestMatcherBuildOrderIsTemplateOrder). Strings are materialised only on the
// unmatched slow path, where the line outlives the arena in the retrain
// buffer. The return value reports whether a periodic checkpoint is due —
// the consumer writes it after the AfterLine hook and the cancellation
// check, preserving the hook's power to hard-stop the engine before the
// interval's checkpoint lands.
func (e *Engine) process(ctx context.Context, it item) (ckptDue bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.ctrs.Processed++
	e.sinceCkpt++
	e.offset = it.lineNo
	if it.oversized {
		e.ctrs.Oversized++
	}
	ckptDue = e.cfg.CheckpointEvery > 0 && e.sinceCkpt >= e.cfg.CheckpointEvery

	content := core.ContentOfBytes(it.data)
	e.tokBuf = core.TokenizeBytes(content, e.tokBuf)
	tokens := e.tokBuf
	if len(tokens) == 0 {
		e.ctrs.Empty++
		return ckptDue
	}
	if e.online != nil {
		// Online-parser mode: the learner assigns every line a group on the
		// spot — there is no unmatched buffer and no retrain cycle. The
		// steady-state path (no template change) is allocation-free, pinned
		// by TestOnlineMatchedPathAllocs; counts grow only when a new group
		// is created, and template rendering is deferred to Result/Digest
		// (a checkpoint writes the learner's snapshot, Stats the count) so
		// the hot path never materialises strings.
		idx, changed := e.online.LearnBytes(tokens)
		if changed {
			e.onlineDirty = true
			e.savedTmpls.add(idx)
			if idx >= len(e.counts) {
				e.counts = append(e.counts, 0)
			}
		}
		e.counts[idx]++
		e.savedCounts.add(idx)
		e.ctrs.Matched++
		e.recordEventLocked(it.lineNo, int32(idx), eventstore.KindMatched)
		return ckptDue
	}
	if e.matcher != nil {
		if idx, ok := e.matcher.MatchBytes(tokens); ok {
			e.counts[idx]++
			e.savedCounts.add(idx)
			e.ctrs.Matched++
			e.recordEventLocked(it.lineNo, int32(idx), eventstore.KindMatched)
			return ckptDue
		}
	}
	e.recordEventLocked(it.lineNo, -1, eventstore.KindUnmatched)
	e.unmatched = append(e.unmatched, string(content))
	if len(e.unmatched) >= e.cfg.RetrainBatch {
		e.retrainLocked(ctx)
	}
	e.capUnmatchedLocked()
	return ckptDue
}

// retrainLocked attempts one retrain over the whole unmatched buffer,
// guarded by the circuit breaker. Called with e.mu held.
func (e *Engine) retrainLocked(ctx context.Context) {
	prevState := e.breaker.state
	if !e.breaker.allow(e.now()) {
		e.noteBreakerLocked(prevState)
		return
	}
	e.noteBreakerLocked(prevState) // open → half-open happens inside allow
	batch := append([]string(nil), e.unmatched...)
	start := e.now()
	tmpls, err := e.cfg.Retrainer.Retrain(ctx, batch)
	e.tm.retrainSec.Observe(e.now().Sub(start).Seconds())
	if err == nil {
		err = e.mergeTemplatesLocked(tmpls)
	}
	prevState = e.breaker.state
	if err != nil {
		e.ctrs.RetrainFailures++
		e.breaker.failure(e.now())
		e.noteBreakerLocked(prevState)
		// Shed the batch head: the trigger re-arms only after RetrainBatch
		// more unmatched lines, instead of retrying on every line.
		drop := e.cfg.RetrainBatch
		if drop > len(e.unmatched) {
			drop = len(e.unmatched)
		}
		e.unmatched = append([]string(nil), e.unmatched[drop:]...)
		e.ctrs.UnmatchedDropped += int64(drop)
		return
	}
	e.ctrs.Retrains++
	e.breaker.success()
	e.noteBreakerLocked(prevState)
	e.reapplyUnmatchedLocked()
}

// mergeTemplatesLocked adds newly mined templates (deduplicated against
// the live set by rendered string) and rebuilds the matcher.
func (e *Engine) mergeTemplatesLocked(tmpls []core.Template) error {
	added := false
	for _, t := range tmpls {
		key := strings.Join(t.Tokens, " ")
		if _, ok := e.index[key]; ok {
			continue
		}
		e.index[key] = len(e.templates)
		e.savedTmpls.add(len(e.templates))
		e.templates = append(e.templates, core.Template{
			ID:     fmt.Sprintf("S%d", len(e.templates)+1),
			Tokens: append([]string(nil), t.Tokens...),
		})
		e.counts = append(e.counts, 0)
		added = true
	}
	if !added {
		return nil
	}
	return e.rebuildMatcher()
}

// reapplyUnmatchedLocked drains the buffer through the (possibly updated)
// matcher: covered lines are counted, the rest are unparsed — below the
// mining support threshold — and dropped so memory stays bounded. The
// matcher's index is the template index, as on process's hot path.
func (e *Engine) reapplyUnmatchedLocked() {
	pending := e.unmatched
	e.unmatched = nil
	for _, line := range pending {
		if e.matcher == nil {
			e.ctrs.Unparsed++
			continue
		}
		if idx, ok := e.matcher.MatchIndex(core.Tokenize(line)); ok {
			e.counts[idx]++
			e.savedCounts.add(idx)
			e.ctrs.Matched++
			// The buffered line's own number is gone; the current offset
			// (the line whose processing triggered this retrain) keeps
			// event seqs non-decreasing and inside checkpoint coverage.
			e.recordEventLocked(e.offset, int32(idx), eventstore.KindLateMatched)
		} else {
			e.ctrs.Unparsed++
		}
	}
}

// capUnmatchedLocked enforces the buffer cap by shedding oldest lines.
func (e *Engine) capUnmatchedLocked() {
	if over := len(e.unmatched) - e.cfg.MaxUnmatched; over > 0 {
		e.unmatched = append([]string(nil), e.unmatched[over:]...)
		e.ctrs.UnmatchedDropped += int64(over)
	}
}

// Checkpoint persists the current state as the newest generation. Safe to
// call at any time, including after Run returns (graceful shutdown).
func (e *Engine) Checkpoint() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.checkpointLocked()
}

func (e *Engine) checkpointLocked() error {
	// Finalize-before-save: fsync the event blocks first, so a successful
	// checkpoint never covers events the store could still lose (and no
	// block ever spans a checkpoint boundary — what lets AlignTo drop
	// whole blocks on restart). A failed store refuses the checkpoint
	// entirely: saving one would make the event gap permanent.
	err := e.finalizeEventsLocked()
	if err == nil {
		start := e.now()
		err = e.saveLocked()
		e.tm.ckptSec.Observe(e.now().Sub(start).Seconds())
	}
	if err != nil {
		e.ckptErrors++
		return err
	}
	e.checkpoints++
	e.sinceCkpt = 0
	e.lastCkpt = e.now()
	e.haveCkpt = true
	if e.wal != nil && e.offset > 0 {
		// The checkpoint now durably covers every line through e.offset;
		// WAL segments entirely below it are redundant. A truncation
		// failure is garbage-collection debt, not a durability problem —
		// count it and keep serving.
		if terr := e.wal.TruncateThrough(uint64(e.offset)); terr != nil {
			e.tm.walTruncErrors.Inc()
		}
	}
	return nil
}

// saveLocked is one checkpoint: a delta of what changed since the last
// durable save, always, and the whole state as a base when the store says one
// is due. The unmatched buffer and the templates' tokens are handed over as
// views — the store marshals them before it returns, under e.mu.
func (e *Engine) saveLocked() error {
	d := &e.delta
	d.Offset, d.Counters, d.Unmatched, d.NumTemplates = e.offset, e.ctrs, e.unmatched, len(e.counts)
	d.BreakerFailures, d.BreakerOpen = e.breaker.consecutive, e.breaker.isOpen()
	d.Templates, d.Counts = d.Templates[:0], d.Counts[:0]
	for _, i := range e.savedTmpls.list {
		if e.online != nil {
			d.Templates = append(d.Templates, templateDelta{Index: i, Tokens: e.online.TemplateTokens(i)})
		} else {
			d.Templates = append(d.Templates, templateDelta{Index: i, ID: e.templates[i].ID, Tokens: e.templates[i].Tokens})
		}
	}
	for _, i := range e.savedCounts.list {
		d.Counts = append(d.Counts, [2]int64{int64(i), e.counts[i]})
	}
	baseDue, err := e.store.saveDelta(d)
	if err != nil {
		return err
	}
	e.savedTmpls.clear()
	e.savedCounts.clear()
	if !baseDue {
		return nil
	}

	// A base that fails from here on — the learner cannot serialise, the
	// disk refuses — is a failed checkpoint, but the delta above stays
	// saved and the store keeps the base due.
	st := &State{
		Offset:          e.offset,
		Templates:       make([]SavedTemplate, len(e.counts)),
		Unmatched:       e.unmatched,
		Counters:        e.ctrs,
		BreakerFailures: d.BreakerFailures,
		BreakerOpen:     d.BreakerOpen,
	}
	for i, n := range e.counts {
		st.Templates[i].Count = n
	}
	if e.online != nil {
		// The learner's snapshot is the only copy of the templates a base
		// carries.
		blob, err := e.online.Snapshot()
		if err != nil {
			return fmt.Errorf("stream: snapshot online parser: %w", err)
		}
		st.Online = &OnlineState{Parser: e.online.Name(), Data: blob}
	} else {
		for i, t := range e.templates {
			st.Templates[i].ID, st.Templates[i].Tokens = t.ID, t.Tokens
		}
	}
	return e.store.saveBase(st, e.store.gen)
}

// dirtySet is a set of template indices: a mark per index plus the list of
// marked ones, so marking is O(1), a save walks only what changed, and the
// steady state allocates nothing.
type dirtySet struct {
	mark []bool
	list []int
}

func (d *dirtySet) add(i int) {
	for len(d.mark) <= i {
		d.mark = append(d.mark, false)
	}
	if !d.mark[i] {
		d.mark[i] = true
		d.list = append(d.list, i)
	}
}

func (d *dirtySet) clear() {
	for _, i := range d.list {
		d.mark[i] = false
	}
	d.list = d.list[:0]
}

// Result returns the current template set and the parallel per-template
// event counts (copies).
func (e *Engine) Result() ([]core.Template, []int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncOnlineLocked()
	tmpls := make([]core.Template, len(e.templates))
	for i, t := range e.templates {
		tmpls[i] = core.Template{ID: t.ID, Tokens: append([]string(nil), t.Tokens...)}
	}
	return tmpls, append([]int64(nil), e.counts...)
}

// Digest returns the canonical digest of the engine's current outcome.
func (e *Engine) Digest() string {
	tmpls, counts := e.Result()
	return Digest(tmpls, counts)
}

// RecoveryError returns the typed error of a corrupt-reset start (every
// checkpoint generation failed verification, the engine started empty) and
// nil after a healthy start. Use errors.As with *AllCorruptError to reach
// the per-generation corruption details.
func (e *Engine) RecoveryError() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.recoveryErr
}

// Stats returns a health snapshot. Safe to call concurrently with Run.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{
		Processed:         e.ctrs.Processed,
		Matched:           e.ctrs.Matched,
		Shed:              e.ctrs.Shed,
		Empty:             e.ctrs.Empty,
		Oversized:         e.ctrs.Oversized,
		Unparsed:          e.ctrs.Unparsed,
		UnmatchedDropped:  e.ctrs.UnmatchedDropped,
		UnmatchedBuffered: len(e.unmatched),
		Retrains:          e.ctrs.Retrains,
		RetrainFailures:   e.ctrs.RetrainFailures,
		Checkpoints:       e.checkpoints,
		CheckpointErrors:  e.ckptErrors,
		CheckpointGen:     e.store.gen,
		DeltasSinceBase:   e.store.sinceBase,
		CheckpointAge:     -1,
		Offset:            e.offset,
		Templates:         len(e.counts),
		Breaker:           e.breaker.stateName(),
		RecoveredFrom:     e.recoveredFrom,
	}
	if e.online != nil {
		s.OnlineParser = e.online.Name()
	}
	if e.recoveryErr != nil {
		s.RecoveryError = e.recoveryErr.Error()
	}
	if e.haveCkpt {
		s.CheckpointAge = e.now().Sub(e.lastCkpt)
	}
	if e.ring != nil {
		s.RingDepth, s.RingHighWater = e.ring.stats()
	}
	if e.wal != nil {
		s.WALEnabled = true
		s.WALLastSeq = int64(e.wal.LastSeq())
		s.WALSegments = e.wal.Segments()
		s.WALReplayed = e.walReplayed
		s.WALTornTails = e.walInfo.TornTails
		s.WALCorruptDropped = e.walInfo.CorruptDropped
		if e.walErr != nil {
			s.WALError = e.walErr.Error()
		}
	}
	if e.events != nil {
		s.EventStoreEnabled = true
		s.EventsAppended = e.eventsAppended
		est := e.events.Stats()
		s.EventStoreLastSeq = est.LastSeq
		s.EventStoreSegments = est.Segments
		s.EventStoreBlocks = est.Blocks
		s.EventStoreTornTails = e.eventsInfo.TornTails
		s.EventStoreCorruptDropped = e.eventsInfo.CorruptDropped
		s.EventStoreBlocksDropped = e.eventsAlign.BlocksDropped
		if e.eventsErr != nil {
			s.EventStoreError = e.eventsErr.Error()
		}
	}
	s.LinesIn = s.Processed + s.Shed + int64(s.RingDepth)
	return s
}
