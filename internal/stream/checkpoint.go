package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"logparse/internal/seglog"
	"logparse/internal/stream/wal"
	"logparse/internal/telemetry"
)

// Checkpoint directory layout:
//
//	checkpoint.ckpt                      the current base
//	checkpoint.ckpt.prev                 the previous base
//	checkpoint.ckpt.delta-%020d.seg      the delta log
//
// A base file (version 1) is
//
//	logstream-checkpoint v1\n
//	sha256 <hex digest of the payload bytes>\n
//	<JSON payload: one State>
//
// The delta log is a seglog client in the WAL's format (wal.Format): one
// record per save, seq = the save's generation, payload = one JSON delta.
// Every save appends a delta and fsyncs it; a base is the compaction of the
// chain so far, written after the delta of the same generation — to a temp
// file, synced, the current base rotated to .prev and the temp file renamed
// into place, so a crash at any instant leaves the chain recoverable. The
// SHA-256 header and the record CRC catch what rename alone cannot: a torn
// write that reported success. Load takes the newest loadable base (current,
// else previous) and applies every later delta in generation order. DESIGN.md
// §8 has the re-base and garbage-collection rules.

const (
	checkpointMagic = "logstream-checkpoint v1"
	currentName     = "checkpoint.ckpt"
	prevName        = "checkpoint.ckpt.prev"
	tmpName         = "checkpoint.ckpt.tmp"
)

// deltaSpec names the delta log's segments checkpoint.ckpt.delta-*.seg.
var deltaSpec = wal.Format("checkpoint-delta", currentName+".delta")

// SavedTemplate is one template with its cumulative event count. In
// online-parser mode the learner's snapshot (State.Online.Data) is the one
// authoritative copy of the templates, so entries carry only Count, in group
// order; checkpoints written before that also filled ID and Tokens, and
// restore still cross-checks them when present.
type SavedTemplate struct {
	ID     string   `json:"id,omitempty"`
	Tokens []string `json:"tokens,omitempty"`
	Count  int64    `json:"count"`
}

// Counters are the engine's cumulative counters; they travel with the
// checkpoint so a resumed run continues the same totals.
type Counters struct {
	Processed        int64 `json:"processed"`
	Matched          int64 `json:"matched"`
	Shed             int64 `json:"shed"`
	Empty            int64 `json:"empty"`
	Oversized        int64 `json:"oversized"`
	Unparsed         int64 `json:"unparsed"`
	UnmatchedDropped int64 `json:"unmatched_dropped"`
	Retrains         int64 `json:"retrains"`
	RetrainFailures  int64 `json:"retrain_failures"`
}

// OnlineState carries an online parser's serialised learner inside a
// checkpoint. Parser names the algorithm so restore can refuse a snapshot
// written by a different learner; Data is the learner's own opaque payload.
type OnlineState struct {
	Parser string          `json:"parser"`
	Data   json.RawMessage `json:"data"`
}

// State is everything an Engine needs to resume: where it was in the
// stream, what it knows, and what it had not yet explained.
type State struct {
	// Gen is the generation of the save this state describes: a base's own,
	// or after Load the last delta's applied on top of it. Zero in bases
	// written before saves were numbered.
	Gen uint64 `json:"gen,omitempty"`
	// Offset is the source line number (1-based, empty lines excluded) of
	// the last processed line; resume skips this many lines.
	Offset int64 `json:"offset"`
	// Templates is the template set with per-template event counts (in
	// online-parser mode the counts alone; see SavedTemplate).
	Templates []SavedTemplate `json:"templates"`
	// Unmatched is the buffered unmatched-line backlog.
	Unmatched []string `json:"unmatched"`
	// Counters are the cumulative stats as of Offset.
	Counters Counters `json:"counters"`
	// BreakerFailures and BreakerOpen persist the retrain breaker across
	// restarts (an open breaker resumes open with a fresh cooldown).
	BreakerFailures int  `json:"breaker_failures"`
	BreakerOpen     bool `json:"breaker_open"`
	// Online is the serialised online learner when the checkpoint was taken
	// in online-parser mode, nil in retrain mode.
	Online *OnlineState `json:"online,omitempty"`
}

// TemplateNames renders the checkpoint's templates in index order — the
// index the event store records — without constructing the learner: an
// online-mode checkpoint keeps them only inside the learner's snapshot, a
// JSON object whose "templates" member lists each group's tokens in
// creation order (the OnlineParser.Snapshot contract).
func (st *State) TemplateNames() ([]string, error) {
	tokens := make([][]string, len(st.Templates))
	for i, t := range st.Templates {
		tokens[i] = t.Tokens
	}
	if st.Online != nil {
		var learner struct {
			Templates [][]string `json:"templates"`
		}
		if err := json.Unmarshal(st.Online.Data, &learner); err != nil || len(learner.Templates) != len(tokens) {
			return nil, fmt.Errorf("stream: %s snapshot does not list the checkpoint's %d templates (%v)", st.Online.Parser, len(tokens), err)
		}
		tokens = learner.Templates
	}
	names := make([]string, len(tokens))
	for i, toks := range tokens {
		names[i] = strings.Join(toks, " ")
	}
	return names, nil
}

// CorruptError reports a checkpoint file that exists but cannot be trusted.
type CorruptError struct {
	Path   string
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("stream: corrupt checkpoint %s: %s", e.Path, e.Reason)
}

// AllCorruptError reports that every checkpoint generation on disk exists
// but failed verification — there is state, and none of it can be trusted.
// Current and Previous hold the per-generation *CorruptError (nil when
// that generation does not exist).
type AllCorruptError struct {
	Current  error
	Previous error
}

func (e *AllCorruptError) Error() string {
	if e.Previous == nil {
		return fmt.Sprintf("stream: only checkpoint generation is unusable: %v", e.Current)
	}
	return fmt.Sprintf("stream: every checkpoint generation is unusable: %v; previous: %v", e.Current, e.Previous)
}

// Unwrap exposes the per-generation errors to errors.Is/As.
func (e *AllCorruptError) Unwrap() []error {
	errs := []error{e.Current}
	if e.Previous != nil {
		errs = append(errs, e.Previous)
	}
	return errs
}

// LoadInfo reports where Load found usable state.
type LoadInfo struct {
	// Source is the base Load started from: "none", "current" or "previous"
	// ("reset" is synthesized by the engine when it absorbs an
	// AllCorruptError).
	Source string
	// CorruptCurrent is the error that disqualified the current
	// generation when Source is "previous" because of corruption (nil
	// when current was simply missing).
	CorruptCurrent error
	// Deltas counts the delta records applied on top of the base.
	Deltas int
	// ChainEnd is what stopped the delta chain short of the log's end — a
	// torn tail (the signature of a crash mid-save), a corrupt record, a
	// generation gap or a delta that does not fit the state before it — and
	// nil when every record on disk was applied or predates the base.
	ChainEnd error
}

// templateDelta is one template founded or generalised since the last save:
// its index, its tokens now, and in retrain mode its id.
type templateDelta struct {
	Index  int      `json:"index"`
	ID     string   `json:"id,omitempty"`
	Tokens []string `json:"tokens"`
}

// delta is the payload of one delta-log record: everything that changed
// since the previous save, as absolute values in State's vocabulary — so
// applying a delta that also repeats an earlier one's changes (the save after
// a failed one carries both intervals) lands on the same state. The unmatched
// buffer travels whole; Config.MaxUnmatched caps it.
type delta struct {
	Offset          int64    `json:"offset"`
	Counters        Counters `json:"counters"`
	BreakerFailures int      `json:"breaker_failures"`
	BreakerOpen     bool     `json:"breaker_open"`
	Unmatched       []string `json:"unmatched"`
	// NumTemplates is the template count after this save; Templates holds
	// the founded (in index order) and generalised ones, Counts the
	// (index, count) pairs that moved.
	NumTemplates int             `json:"num_templates"`
	Templates    []templateDelta `json:"templates"`
	Counts       [][2]int64      `json:"counts"`
}

// chain folds delta records into the State of the base they follow.
type chain struct {
	st *State
	// learner is Online.Data decoded into its members and tmpls its
	// "templates" member, both nil until a delta first changes an online
	// template; finish re-encodes them.
	learner map[string]json.RawMessage
	tmpls   [][]string
}

var errChainGap = errors.New("stream: checkpoint delta generation gap")

// apply folds one record in, or returns an error with the state untouched:
// everything is validated before anything is mutated.
func (c *chain) apply(gen uint64, payload []byte) error {
	st := c.st
	if gen != st.Gen+1 {
		return errChainGap
	}
	var d delta
	if err := json.Unmarshal(payload, &d); err != nil {
		return fmt.Errorf("stream: checkpoint delta %d does not decode: %w", gen, err)
	}
	bad := func(format string, args ...any) error {
		return fmt.Errorf("stream: checkpoint delta %d: "+format, append([]any{gen}, args...)...)
	}
	old := len(st.Templates)
	if d.Offset < st.Offset || d.NumTemplates < old {
		return bad("offset %d, %d templates behind the state's %d, %d", d.Offset, d.NumTemplates, st.Offset, old)
	}
	online := st.Online != nil
	next := old // founded templates must arrive in index order, none missing
	for i, t := range d.Templates {
		same := func(o []string) bool { return slices.Equal(o, t.Tokens) }
		switch {
		case len(t.Tokens) == 0 || t.Index < 0 || t.Index > next:
			return bad("template %d of %d is empty or out of order", t.Index, next)
		case online && t.Index < next:
			// generalised, or founded by a delta this one repeats
		case online:
			next++
		case t.Index < old && same(st.Templates[t.Index].Tokens):
			// retrain-mode templates never change; a repeat is harmless
		case t.Index < next:
			return bad("retrain-mode template %d changed", t.Index)
		case slices.ContainsFunc(st.Templates, func(o SavedTemplate) bool { return same(o.Tokens) }),
			slices.ContainsFunc(d.Templates[:i], func(o templateDelta) bool { return same(o.Tokens) }):
			return bad("duplicate template %d (%q)", t.Index, t.Tokens) // as validateState refuses one
		default:
			next++
		}
	}
	if next != d.NumTemplates {
		return bad("founds %d templates, lists %d", d.NumTemplates-old, next-old)
	}
	for _, n := range d.Counts {
		if n[0] < 0 || n[0] >= int64(next) || n[1] < 0 {
			return bad("count %d for template %d of %d", n[1], n[0], next)
		}
	}
	if online && len(d.Templates) > 0 && c.learner == nil {
		var learner map[string]json.RawMessage
		var tmpls [][]string
		if err := json.Unmarshal(st.Online.Data, &learner); err != nil {
			return bad("%s snapshot does not decode: %v", st.Online.Parser, err)
		}
		if err := json.Unmarshal(learner["templates"], &tmpls); err != nil || len(tmpls) != old {
			return bad("%s snapshot does not list the state's %d templates (%v)", st.Online.Parser, old, err)
		}
		c.learner, c.tmpls = learner, tmpls
	}

	st.Templates = append(st.Templates, make([]SavedTemplate, next-old)...)
	for _, t := range d.Templates {
		switch {
		case !online:
			st.Templates[t.Index].ID, st.Templates[t.Index].Tokens = t.ID, t.Tokens
		case t.Index == len(c.tmpls):
			c.tmpls = append(c.tmpls, t.Tokens)
		default:
			// A base from before the snapshot became the only copy also
			// lists each template here; the stale rendering must not fail
			// restore's cross-check.
			c.tmpls[t.Index], st.Templates[t.Index].ID, st.Templates[t.Index].Tokens = t.Tokens, "", nil
		}
	}
	for _, n := range d.Counts {
		st.Templates[n[0]].Count = n[1]
	}
	st.Gen, st.Offset, st.Counters, st.Unmatched = gen, d.Offset, d.Counters, d.Unmatched
	st.BreakerFailures, st.BreakerOpen = d.BreakerFailures, d.BreakerOpen
	return nil
}

// finish writes the folded online templates back into the documented
// "templates" member of Online.Data, making the State self-contained.
func (c *chain) finish() error {
	if c.learner == nil {
		return nil
	}
	tmpls, err := json.Marshal(c.tmpls)
	if err == nil {
		c.learner["templates"] = tmpls
		c.st.Online.Data, err = json.Marshal(c.learner)
	}
	return err
}

// Store persists one engine's checkpoints in one directory: the delta log
// every save appends to, and the two base generations that compact it.
type Store struct {
	dir string
	// seam is the fault-injection seam over every file a save writes: Wrap
	// wraps the delta segments and the base's temp file, Hook fires at
	// "save" (an engine's save begins), "base" (its delta is durable, the base not yet
	// started) and the delta log's own "rotate" (the base is published, head
	// segments not yet dropped), "truncate" and "dirsync".
	seam seglog.Seam

	// log is the delta log's writer, opened — and crash damage repaired — by
	// the first save; Load only reads. A failed append abandons it (seglog
	// latches the first failure) and the next save reopens it.
	log *seglog.Log
	// gen is the newest generation saved, loaded or found in the log: the
	// next save takes gen+1, so generations rise above anything on disk.
	// baseGen is that of the base this store last wrote or loaded.
	gen, baseGen uint64
	// basePayload is the payload size of the last base this store wrote,
	// deltaBytes the record bytes appended since and sinceBase their count.
	// A base is due when deltaBytes reaches basePayload — at once for a new
	// store, then geometrically, so bytes written and bytes read at recovery
	// both stay within about twice the state's size with nothing to tune.
	basePayload, deltaBytes int64
	sinceBase               int

	// bytes, bases and deltas count what reached the disk; dirsyncErrs
	// counts directory-fsync failures. All nil-safe; the engine wires them
	// to stream.checkpoint.*.
	bytes, bases, deltas, dirsyncErrs *telemetry.Counter
	// dirsyncOnce gates the one log line a failing directory fsync gets:
	// the condition is persistent (filesystem without dir fsync, deleted
	// dir), so repeating it per checkpoint would be noise.
	dirsyncOnce sync.Once
	// logf emits that line; tests substitute a recorder. Defaults to
	// log.Printf.
	logf func(format string, args ...any)
}

// NewStore opens (creating if needed) a checkpoint directory.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("stream: checkpoint directory is required")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("stream: checkpoint dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

func (s *Store) path(name string) string { return filepath.Join(s.dir, name) }

// openLog opens the delta log for append. SegmentBytes stays zero: a
// segment never has room, so every open starts a fresh file and rotation is
// saveBase's decision alone.
func (s *Store) openLog() error {
	if s.log != nil {
		return nil
	}
	log, li, err := seglog.Open(&deltaSpec, seglog.Options{Dir: s.dir, Seam: s.seam}, wal.VerifyRecord, nil)
	if err != nil {
		return err
	}
	s.log, s.gen = log, max(s.gen, li.LastSeq)
	return nil
}

func (s *Store) closeLog() {
	s.log.Close() // the handle of a failed or finished log; nothing left to lose
	s.log = nil
}

// saveDelta appends d as the next generation and fsyncs it, reporting
// whether a base is now due. On failure nothing is recorded as saved.
func (s *Store) saveDelta(d *delta) (baseDue bool, err error) {
	if err := s.seam.Fire("save"); err != nil {
		return false, err
	}
	payload, err := json.Marshal(d)
	if err != nil {
		return false, fmt.Errorf("stream: encode checkpoint delta: %w", err)
	}
	if err := s.openLog(); err != nil {
		return false, err
	}
	rec := wal.AppendRecord(nil, s.gen+1, payload)
	if _, err = s.log.Ensure(s.gen + 1); err == nil {
		if _, err = s.log.Write(rec); err == nil {
			err = s.log.Sync()
		}
	}
	if err != nil {
		s.closeLog()
		return false, fmt.Errorf("stream: append checkpoint delta: %w", err)
	}
	s.gen++
	s.sinceBase++
	s.deltaBytes += int64(len(rec))
	s.deltas.Inc()
	s.bytes.Add(uint64(len(rec)))
	return s.deltaBytes >= s.basePayload, nil
}

// Save persists st as a base of its own, next generation: the current base
// rotates to previous and every delta on disk is superseded.
func (s *Store) Save(st *State) error {
	if err := s.openLog(); err != nil {
		return err
	}
	return s.saveBase(st, s.gen+1)
}

// saveBase atomically publishes st as the current base of generation gen —
// the engine passes the generation of the delta it just saved, which the
// next delta follows — and then drops the delta segments no recovery can
// need: those wholly at or below the base that just became previous.
func (s *Store) saveBase(st *State, gen uint64) error {
	if err := s.seam.Fire("base"); err != nil {
		return err
	}
	payload, err := encodeBase(st, gen)
	if err != nil {
		return fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	head := fmt.Appendf(nil, "%s\nsha256 %x\n", checkpointMagic, sha256.Sum256(payload))

	tmp := s.path(tmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}
	var w seglog.File = f
	if s.seam.Wrap != nil {
		w = s.seam.Wrap(f)
	}
	if _, err = w.Write(head); err == nil {
		if _, err = w.Write(payload); err == nil {
			err = w.Sync()
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}

	cur := s.path(currentName)
	if _, err := os.Stat(cur); err == nil {
		if err := os.Rename(cur, s.path(prevName)); err != nil {
			return fmt.Errorf("stream: rotate checkpoint: %w", err)
		}
	}
	if err := os.Rename(tmp, cur); err != nil {
		return fmt.Errorf("stream: publish checkpoint: %w", err)
	}
	s.syncDir()
	s.bases.Inc()
	s.bytes.Add(uint64(len(head) + len(payload)))

	previous := s.baseGen // 0 when unknown: nothing is at or below it
	s.gen, s.baseGen = max(s.gen, gen), gen
	s.basePayload, s.deltaBytes, s.sinceBase = int64(len(payload)), 0, 0
	// Sealing the active segment here keeps segments aligned with bases.
	// Failing to seal or drop is garbage-collection debt the next base
	// pays, not damage.
	if s.log.Active() {
		err = s.log.Rotate(gen)
	}
	if err == nil {
		_, err = s.log.DropHead(previous)
	}
	if err != nil {
		s.closeLog()
	}
	return nil
}

// encodeBase is json.Marshal of st at generation gen, byte for byte, except
// that the learner's snapshot — JSON its own Marshal just produced, and most
// of a large base — is spliced in as it is: encoding/json would scan and copy
// all of it again to compact it (a third of a save at 15 k templates).
func encodeBase(st *State, gen uint64) ([]byte, error) {
	out := *st
	out.Gen, out.Online = gen, nil
	payload, err := json.Marshal(&out)
	if err != nil || st.Online == nil {
		return payload, err
	}
	parser, _ := json.Marshal(st.Online.Parser)
	payload = append(payload[:len(payload)-1], `,"online":{"parser":`...)
	payload = append(append(payload, parser...), `,"data":`...)
	return append(append(payload, st.Online.Data...), "}}"...), nil
}

// syncDir fsyncs the directory so the renames are durable. The rename
// itself already published the new generation; a directory-fsync failure
// only narrows the window in which a power cut could resurrect the old
// one — so the checkpoint still succeeds, but the failure is surfaced
// (logged once, counted every time) instead of silently swallowed.
func (s *Store) syncDir() {
	err := seglog.SyncDir(s.dir)
	if err == nil {
		return
	}
	s.dirsyncErrs.Inc()
	s.dirsyncOnce.Do(func() {
		logf := s.logf
		if logf == nil {
			logf = log.Printf
		}
		logf("stream: checkpoint directory fsync failed (reported once; counted in stream.checkpoint.dirsync_errors): %v", err)
	})
}

// Load returns the newest trustworthy state: the newest loadable base — the
// current one, or when that is missing or corrupt the previous — with every
// delta of a later generation applied in order, stopping at the first record
// that is torn, corrupt, out of sequence or does not fit the state before it
// (LoadInfo.ChainEnd). The returned State is self-contained, template changes
// folded into Online.Data. Load only reads: repairing the delta log is the
// next save's job. (nil, info, nil) with Source "none" means a fresh start.
// When every existing base fails verification the error is a typed
// *AllCorruptError, which the engine absorbs into an empty start with the
// damage surfaced through Stats and telemetry; non-corruption failures
// (permissions, IO) stay plain errors and fail construction.
func (s *Store) Load() (*State, LoadInfo, error) {
	st, info, err := s.loadBase()
	if st == nil {
		return nil, info, err
	}
	// Whichever base loaded, nothing at or below it is needed again: if it
	// was the previous one, the current is missing or corrupt and can only
	// become a previous that recovery skips.
	s.baseGen = st.Gen
	c := chain{st: st}
	_, info.ChainEnd = seglog.Scan(&deltaSpec, s.dir, seglog.ScanInfo{}, wal.VerifyRecord, func(_ int, _ int64, fr seglog.Frame, payload []byte) error {
		if fr.MinSeq <= st.Gen {
			return nil // compacted into the base
		}
		return c.apply(fr.MinSeq, payload)
	})
	if err := c.finish(); err != nil {
		return nil, info, fmt.Errorf("stream: fold checkpoint deltas: %w", err)
	}
	info.Deltas = int(st.Gen - s.baseGen) // applied generations are consecutive
	s.sinceBase, s.gen = info.Deltas, max(s.gen, st.Gen)
	return st, info, nil
}

// loadBase picks the base Load starts from.
func (s *Store) loadBase() (*State, LoadInfo, error) {
	st, errCur := loadFile(s.path(currentName))
	if errCur == nil {
		return st, LoadInfo{Source: "current"}, nil
	}
	info := LoadInfo{}
	if !os.IsNotExist(errCur) {
		info.CorruptCurrent = errCur
	}
	st, errPrev := loadFile(s.path(prevName))
	if errPrev == nil {
		info.Source = "previous"
		return st, info, nil
	}
	// Neither loads. A missing file is not damage; what exists is either
	// all corrupt (typed, absorbed by the engine) or unreadable (fatal).
	var exist []error
	for _, err := range []error{errCur, errPrev} {
		var ce *CorruptError
		if os.IsNotExist(err) {
			continue
		} else if !errors.As(err, &ce) {
			return nil, info, fmt.Errorf("stream: checkpoint base is unusable: %w", err)
		}
		exist = append(exist, err)
	}
	switch len(exist) {
	case 0:
		info.Source = "none"
		return nil, info, nil
	case 1:
		return nil, info, &AllCorruptError{Current: exist[0]}
	}
	return nil, info, &AllCorruptError{Current: exist[0], Previous: exist[1]}
}

// loadFile reads and verifies one checkpoint file.
func loadFile(path string) (*State, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rest, ok := strings.CutPrefix(string(data), checkpointMagic+"\n")
	if !ok {
		return nil, &CorruptError{Path: path, Reason: "bad magic header"}
	}
	nl := strings.IndexByte(rest, '\n')
	if nl < 0 {
		return nil, &CorruptError{Path: path, Reason: "truncated before payload"}
	}
	sumLine, payload := rest[:nl], []byte(rest[nl+1:])
	hexSum, ok := strings.CutPrefix(sumLine, "sha256 ")
	if !ok {
		return nil, &CorruptError{Path: path, Reason: "missing sha256 header"}
	}
	want, err := hex.DecodeString(hexSum)
	if err != nil || len(want) != sha256.Size {
		return nil, &CorruptError{Path: path, Reason: "malformed sha256 header"}
	}
	got := sha256.Sum256(payload)
	if !bytes.Equal(got[:], want) {
		return nil, &CorruptError{Path: path, Reason: "payload digest mismatch (torn or tampered write)"}
	}
	var st State
	if err := json.Unmarshal(payload, &st); err != nil {
		return nil, &CorruptError{Path: path, Reason: "payload does not decode: " + err.Error()}
	}
	if err := validateState(&st); err != nil {
		return nil, &CorruptError{Path: path, Reason: err.Error()}
	}
	return &st, nil
}

// validateState checks structural invariants a matcher rebuild depends on.
func validateState(st *State) error {
	if st.Offset < 0 {
		return fmt.Errorf("negative offset %d", st.Offset)
	}
	if st.Online != nil && st.Online.Parser == "" {
		return fmt.Errorf("online state missing parser name")
	}
	seen := make(map[string]bool)
	for i, t := range st.Templates {
		if t.Count < 0 {
			return fmt.Errorf("template %d has negative count", i)
		}
		if st.Online != nil {
			// Online learners keep group identity, not rendered-string
			// identity: two groups can legitimately converge to the same
			// template, so there is nothing to render and look up.
			continue
		}
		key := strings.Join(t.Tokens, " ")
		if seen[key] {
			return fmt.Errorf("duplicate template %d (%q)", i, key)
		}
		seen[key] = true
	}
	return nil
}
