package stream

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// Checkpoint file layout (version 1):
//
//	logstream-checkpoint v1\n
//	sha256 <hex digest of the payload bytes>\n
//	<JSON payload>
//
// Save writes to a temp file in the same directory, syncs, rotates the
// current generation to .prev, and renames the temp file into place — so a
// crash at any instant leaves at least one loadable generation on disk.
// The SHA-256 header catches the failure rename alone cannot: a torn write
// that reported success (data lost between write and fsync). Load verifies
// the digest and falls back from current to previous automatically.

const (
	checkpointMagic = "logstream-checkpoint v1"
	currentName     = "checkpoint.ckpt"
	prevName        = "checkpoint.ckpt.prev"
	tmpName         = "checkpoint.ckpt.tmp"
)

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
	// Source is "none", "current" or "previous" ("reset" is synthesized
	// by the engine when it absorbs an AllCorruptError).
	Source string
	// CorruptCurrent is the error that disqualified the current
	// generation when Source is "previous" because of corruption (nil
	// when current was simply missing).
	CorruptCurrent error
}

// Store persists checkpoint generations in one directory.
type Store struct {
	dir string
	// wrap intercepts the payload writer; the fault-injection seam for
	// torn-write testing.
	wrap func(io.Writer) io.Writer
	// dirsyncErrs counts directory-fsync failures (nil-safe); the engine
	// wires it to stream.checkpoint.dirsync_errors.
	dirsyncErrs *telemetry.Counter
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

// Save atomically persists st as the current generation, rotating the old
// current to previous.
func (s *Store) Save(st *State) error {
	payload, err := json.Marshal(st)
	if err != nil {
		return fmt.Errorf("stream: encode checkpoint: %w", err)
	}
	sum := sha256.Sum256(payload)

	tmp := s.path(tmpName)
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}
	var w io.Writer = f
	if s.wrap != nil {
		w = s.wrap(f)
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(checkpointMagic)
	bw.WriteByte('\n')
	bw.WriteString("sha256 " + hex.EncodeToString(sum[:]))
	bw.WriteByte('\n')
	bw.Write(payload)
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("stream: write checkpoint: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("stream: sync checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("stream: close checkpoint: %w", err)
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
	return nil
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

// Load returns the newest trustworthy state: the current generation, or —
// when current is missing or corrupt — the previous one. (nil, info, nil)
// with Source "none" means a fresh start. When every existing generation
// fails verification the error is a typed *AllCorruptError, which the
// engine absorbs into an empty start with the damage surfaced through
// Stats and telemetry; non-corruption failures (permissions, IO) stay
// plain errors and fail construction.
func (s *Store) Load() (*State, LoadInfo, error) {
	cur, prev := s.path(currentName), s.path(prevName)
	st, errCur := loadFile(cur)
	if errCur == nil {
		return st, LoadInfo{Source: "current"}, nil
	}
	info := LoadInfo{}
	if !os.IsNotExist(errCur) {
		info.CorruptCurrent = errCur
	}
	st, errPrev := loadFile(prev)
	if errPrev == nil {
		info.Source = "previous"
		return st, info, nil
	}
	if os.IsNotExist(errCur) && os.IsNotExist(errPrev) {
		info.Source = "none"
		return nil, info, nil
	}
	isCorrupt := func(err error) bool {
		var ce *CorruptError
		return errors.As(err, &ce)
	}
	if os.IsNotExist(errPrev) {
		if isCorrupt(errCur) {
			return nil, info, &AllCorruptError{Current: errCur}
		}
		return nil, info, fmt.Errorf("stream: only checkpoint generation is unusable: %w", errCur)
	}
	if (os.IsNotExist(errCur) || isCorrupt(errCur)) && isCorrupt(errPrev) {
		acur := errCur
		if os.IsNotExist(errCur) {
			acur = nil
		}
		if acur == nil {
			// Only previous exists and it is corrupt.
			return nil, info, &AllCorruptError{Current: errPrev}
		}
		return nil, info, &AllCorruptError{Current: acur, Previous: errPrev}
	}
	return nil, info, fmt.Errorf("stream: every checkpoint generation is unusable: %w; previous: %v", errCur, errPrev)
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
	seen := make(map[string]bool, len(st.Templates))
	for i, t := range st.Templates {
		key := strings.Join(t.Tokens, " ")
		if seen[key] {
			// Online learners keep group identity, not rendered-string
			// identity: two groups can legitimately converge to the same
			// template. The matcher rebuild in online mode dedups instead.
			if st.Online == nil {
				return fmt.Errorf("duplicate template %d (%q)", i, key)
			}
		}
		seen[key] = true
		if t.Count < 0 {
			return fmt.Errorf("template %d has negative count", i)
		}
	}
	if st.Online != nil && st.Online.Parser == "" {
		return fmt.Errorf("online state missing parser name")
	}
	return nil
}
