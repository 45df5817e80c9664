package conform

import (
	"testing"

	"logparse/internal/core"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/spell"
	"logparse/internal/stream"
)

// The streaming-native parsers join the conformance matrix here: an engine
// learning online (per line, on the hot path) over a dataset stream must be
// observationally equivalent to the same algorithm's batch parse of the
// same corpus — identical canonical stream digest (templates + counts) —
// and the equivalence must survive kill-and-recover: a run killed at
// several positions and resumed from checkpoints (which round-trip the
// learner's internal state) converges to the uninterrupted digest.

// onlineCell pairs an online learner factory with its batch counterpart.
// Fresh instances per engine incarnation: learners hold per-engine state.
type onlineCell struct {
	name  string
	mk    func() stream.OnlineParser
	batch func() core.Parser
}

func onlineCells() []onlineCell {
	return []onlineCell{
		{
			name:  "Drain",
			mk:    func() stream.OnlineParser { return drain.NewStream(drain.Options{}) },
			batch: func() core.Parser { return drain.New(drain.Options{}) },
		},
		{
			name:  "Spell",
			mk:    func() stream.OnlineParser { return spell.NewStream(spell.Options{}) },
			batch: func() core.Parser { return spell.New(spell.Options{}) },
		},
	}
}

// onlineStreamConfig is streamConfig for online-parser mode (no retrain
// knobs — the learner replaces that machinery entirely), with a fresh
// learner instance per engine incarnation.
func onlineStreamConfig(dir string, cell onlineCell) stream.Config {
	return stream.Config{
		CheckpointDir:   dir,
		CheckpointEvery: 333,
		Online:          cell.mk(),
	}
}

func TestOnlineEngineMatchesBatchParse(t *testing.T) {
	for _, c := range streamCases() {
		for _, cell := range onlineCells() {
			c, cell := c, cell
			t.Run(c.dataset+"-"+cell.name, func(t *testing.T) {
				t.Parallel()
				src, msgs := sourceFor(t, c)
				clean := runStream(t, onlineStreamConfig(t.TempDir(), cell), src, 0)

				res, err := cell.batch().Parse(msgs)
				if err != nil {
					t.Fatalf("batch parse: %v", err)
				}
				counts := make([]int64, len(res.Templates))
				for _, a := range res.Assignment {
					if a == core.OutlierID {
						t.Fatal("online-capable parser emitted an outlier in batch mode")
					}
					counts[a]++
				}
				want := stream.Digest(res.Templates, counts)
				if got := clean.Digest(); got != want {
					t.Errorf("online stream digest %s != batch parse digest %s", got, want)
				}

				st := clean.Stats()
				if st.OnlineParser != cell.name {
					t.Errorf("Stats.OnlineParser = %q, want %q", st.OnlineParser, cell.name)
				}
				if st.Retrains != 0 || st.Unparsed != 0 {
					t.Errorf("online mode ran retrains=%d unparsed=%d, want 0/0", st.Retrains, st.Unparsed)
				}
			})
		}
	}
}

func TestOnlineKillAndRecoverMatchesUninterrupted(t *testing.T) {
	for _, c := range streamCases() {
		for _, cell := range onlineCells() {
			c, cell := c, cell
			t.Run(c.dataset+"-"+cell.name, func(t *testing.T) {
				t.Parallel()
				src, _ := sourceFor(t, c)
				clean := runStream(t, onlineStreamConfig(t.TempDir(), cell), src, 0)
				want := clean.Digest()

				dir := t.TempDir()
				for _, kill := range c.kills {
					runStream(t, onlineStreamConfig(dir, cell), src, kill)
				}
				resumed := runStream(t, onlineStreamConfig(dir, cell), src, 0)

				if got := resumed.Digest(); got != want {
					t.Errorf("digest after %d kills = %s, want %s", len(c.kills), got, want)
				}
				cs, rs := clean.Stats(), resumed.Stats()
				if rs.Processed != cs.Processed || rs.Matched != cs.Matched {
					t.Errorf("counters diverged:\nresumed: %+v\nclean:   %+v", rs, cs)
				}
			})
		}
	}
}
