package core

import (
	"context"
	"fmt"
	"strings"

	"logparse/internal/telemetry"
)

// LineLearner is what LearnCorpus drives: the learn-per-line half of a
// streaming parser (drain.StreamParser, spell.StreamParser).
type LineLearner interface {
	// LearnBytes consumes one non-empty tokenised line and returns the
	// stable index of the group it joined.
	LearnBytes(tokens [][]byte) (idx int, changed bool)
	// Templates returns the learned templates in group-creation order.
	Templates() []Template
}

// OnlineParser is a learn-per-line parser the stream engine can run in place
// of its match/buffer/retrain cycle. Implementations (drain.StreamParser,
// spell.StreamParser) are single-goroutine learners; the engine serialises
// every call under its own lock, so they need no internal synchronisation.
type OnlineParser interface {
	// LearnBytes and Templates are LineLearner's, with two further
	// promises: indices are stable (group i keeps meaning group i forever,
	// and the template count never shrinks), and the tokens' backing
	// storage is not retained.
	LineLearner
	// Name identifies the algorithm; checkpoints record it and refuse to
	// restore under a different parser.
	Name() string
	// TemplateTokens returns group i's current tokens as a read-only view,
	// valid until the next LearnBytes or Restore — what a checkpoint delta
	// records for a group founded or generalised since the last save.
	TemplateTokens(i int) []string
	// Snapshot serialises the learner's full state for a checkpoint: a JSON
	// object whose "templates" member lists each group's tokens in creation
	// order (stream.State.TemplateNames reads it), plus whatever else the learner
	// needs. It is the only copy of the templates an online checkpoint holds.
	Snapshot() ([]byte, error)
	// Restore replaces the learner's state with a snapshot taken by the same
	// algorithm under the same parameters.
	Restore(data []byte) error
}

// learnStride bounds how many lines are learned between context checks; the
// learners are near-linear, so the check costs nothing at this stride.
const learnStride = 1024

// LearnCorpus is the batch façade of a streaming learner: it feeds s the
// corpus line by line and reports the final templates with each message
// assigned to its group (OutlierID for a line with no tokens). name is the
// algorithm's — the telemetry instruments (parse.<name>.calls, .lines,
// .seconds, the <name>.parse span) and the cancellation error carry it in
// lower case.
func LearnCorpus(ctx context.Context, name string, tel *telemetry.Handle, s LineLearner, msgs []LogMessage) (*ParseResult, error) {
	if len(msgs) == 0 {
		return nil, ErrNoMessages
	}
	name = strings.ToLower(name)
	sp := tel.StartParse(ctx, name, len(msgs))
	defer sp.End()

	stage := sp.Child("learn")
	assign := make([]int, len(msgs))
	var (
		buf   [][]byte
		arena []byte // one line's tokens packed back to back; buf slices it
	)
	for i := range msgs {
		if i%learnStride == 0 {
			if err := ctx.Err(); err != nil {
				stage.End()
				return nil, fmt.Errorf("%s: parse cancelled at line %d: %w", name, i, err)
			}
		}
		toks := msgs[i].Tokens
		if toks == nil {
			toks = Tokenize(msgs[i].Content)
		}
		if len(toks) == 0 {
			assign[i] = OutlierID
			continue
		}
		arena, buf = PackTokens(toks, arena, buf)
		assign[i], _ = s.LearnBytes(buf)
	}
	stage.End()

	stage = sp.Child("templates")
	res := &ParseResult{Templates: s.Templates(), Assignment: assign}
	stage.End()
	return res, nil
}
