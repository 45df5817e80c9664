package conform

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/match"
	"logparse/internal/stream"
)

// The streaming ingestion path joins the conformance matrix here: a run
// killed at several stream positions and resumed from its checkpoints must
// be observationally equivalent to an uninterrupted run — same canonical
// stream digest (templates + per-template event counts) and, when the final
// template sets are re-applied to the corpus as batch matchers, the same
// canonical parse-result digest the rest of the matrix compares.

// streamCase is one dataset cell of the streaming conformance matrix.
type streamCase struct {
	dataset string
	seed    int64
	n       int
	kills   []int64
}

func streamCases() []streamCase {
	return []streamCase{
		{dataset: "HDFS", seed: 11, n: 4000, kills: []int64{701, 1903, 3307}},
		{dataset: "Zookeeper", seed: 12, n: 4000, kills: []int64{599, 2111, 3511}},
	}
}

// sourceFor serialises the cell's deterministic sample into the annotated
// format the whole toolkit reads; every run feeds it from its start.
func sourceFor(t *testing.T, c streamCase) ([]byte, []core.LogMessage) {
	t.Helper()
	cat, err := gen.ByName(c.dataset)
	if err != nil {
		t.Fatal(err)
	}
	msgs := cat.Generate(c.seed, c.n)
	var buf bytes.Buffer
	if err := core.WriteMessages(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), msgs
}

func streamConfig(dir string) stream.Config {
	return stream.Config{
		CheckpointDir:   dir,
		CheckpointEvery: 333,
		RetrainBatch:    128,
	}
}

// runStream feeds src to one engine incarnation; killAt == 0 runs to
// completion.
func runStream(t *testing.T, cfg stream.Config, src []byte, killAt int64) *stream.Engine {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if killAt > 0 {
		cfg.AfterLine = func(lineNo int64) {
			if lineNo == killAt {
				cancel()
			}
		}
	}
	e, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = stream.Feed(ctx, e, bytes.NewReader(src))
	if killAt > 0 {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("killed run returned %v, want context.Canceled", err)
		}
	} else if err != nil {
		t.Fatal(err)
	}
	return e
}

// batchDigest re-applies the engine's final template set to the corpus as a
// batch matcher and returns the matrix's canonical parse-result digest.
func batchDigest(t *testing.T, e *stream.Engine, msgs []core.LogMessage) string {
	t.Helper()
	tmpls, _ := e.Result()
	if len(tmpls) == 0 {
		t.Fatal("engine finished with no templates")
	}
	m, err := match.New(tmpls)
	if err != nil {
		t.Fatal(err)
	}
	return Digest(MergeEqualTemplates(m.Apply(msgs)))
}

func TestStreamResumedRunMatchesUninterrupted(t *testing.T) {
	for _, c := range streamCases() {
		c := c
		t.Run(c.dataset, func(t *testing.T) {
			t.Parallel()
			src, msgs := sourceFor(t, c)

			clean := runStream(t, streamConfig(t.TempDir()), src, 0)
			wantStream := clean.Digest()
			wantBatch := batchDigest(t, clean, msgs)

			dir := t.TempDir()
			for _, kill := range c.kills {
				runStream(t, streamConfig(dir), src, kill)
			}
			resumed := runStream(t, streamConfig(dir), src, 0)

			if got := resumed.Digest(); got != wantStream {
				t.Errorf("stream digest after %d kills = %s, want %s", len(c.kills), got, wantStream)
			}
			if got := batchDigest(t, resumed, msgs); got != wantBatch {
				t.Errorf("canonical batch digest diverged after recovery: %s vs %s", got, wantBatch)
			}
			cs, rs := clean.Stats(), resumed.Stats()
			if rs.Processed != cs.Processed || rs.Matched != cs.Matched || rs.Unparsed != cs.Unparsed {
				t.Errorf("counters diverged:\nresumed: %+v\nclean:   %+v", rs, cs)
			}
		})
	}
}
