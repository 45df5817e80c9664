package stream

import "logparse/internal/core"

// OnlineParser is a learn-per-line parser the engine can run in place of the
// match/buffer/retrain cycle. Implementations (drain.StreamParser,
// spell.StreamParser) are single-goroutine learners; the engine serialises
// every call under its own lock, so they need no internal synchronisation.
type OnlineParser interface {
	// Name identifies the algorithm; checkpoints record it and refuse to
	// restore under a different parser.
	Name() string
	// LearnBytes consumes one non-empty tokenised line and returns the index
	// of the group it joined plus whether the template set changed. Indices
	// are stable: group i keeps meaning group i forever, and the template
	// count never shrinks. The tokens' backing storage must not be retained.
	LearnBytes(tokens [][]byte) (idx int, changed bool)
	// Templates returns the learned templates in group-creation order, so
	// Templates()[i] renders the group LearnBytes called i.
	Templates() []core.Template
	// TemplateTokens returns group i's current tokens as a read-only view,
	// valid until the next LearnBytes or Restore — what a checkpoint delta
	// records for a group founded or generalised since the last save.
	TemplateTokens(i int) []string
	// Snapshot serialises the learner's full state for a checkpoint: a JSON
	// object whose "templates" member lists each group's tokens in creation
	// order (State.TemplateNames reads it), plus whatever else the learner
	// needs. It is the only copy of the templates an online checkpoint holds.
	Snapshot() ([]byte, error)
	// Restore replaces the learner's state with a snapshot taken by the same
	// algorithm under the same parameters.
	Restore(data []byte) error
}

// syncOnlineLocked refreshes the engine's template/count view from the
// online learner after the template set changed. Counts are indexed by group,
// so growth (online learners never shrink) just extends the slice with
// zeroes; rendered templates may have lost constants in place.
func (e *Engine) syncOnlineLocked() {
	if e.online == nil || !e.onlineDirty {
		return
	}
	e.templates = e.online.Templates()
	for len(e.counts) < len(e.templates) {
		e.counts = append(e.counts, 0)
	}
	e.onlineDirty = false
}
