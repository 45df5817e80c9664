package core

import (
	"context"
	"fmt"
	"strings"
	"time"

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
	tel.Counter("parse." + name + ".calls").Inc()
	tel.Counter("parse." + name + ".lines").Add(uint64(len(msgs)))
	sp := tel.SpanFrom(ctx, name+".parse")
	start := time.Now()
	defer func() {
		sp.End()
		tel.Histogram("parse."+name+".seconds", telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
	}()

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
