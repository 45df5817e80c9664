package logparse

// Streaming ingestion (the long-running service layer). The paper's
// experiments are one-shot batch parses; a deployment types an unbounded
// stream and must survive crashes, overload and broken retraining. The
// StreamEngine tails a re-openable source, matches lines online against the
// known template set, buffers what no template covers, and retrains on that
// buffer through a robust degradation chain — with atomic checkpoints
// (template set, event counts, unmatched buffer, stream offset), a bounded
// admission ring (backpressure or load shedding), and a circuit breaker
// that degrades retraining to matcher-only service under repeated failure.

import (
	"fmt"
	"strings"

	"logparse/internal/core"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/slct"
	"logparse/internal/parsers/spell"
	"logparse/internal/stream"
)

type (
	// StreamEngine is the crash-safe streaming ingester.
	StreamEngine = stream.Engine
	// StreamConfig configures a StreamEngine.
	StreamConfig = stream.Config
	// StreamStats is a point-in-time health snapshot of a StreamEngine.
	StreamStats = stream.Stats
	// StreamAdmissionPolicy selects backpressure vs load shedding when the
	// admission ring is full.
	StreamAdmissionPolicy = stream.AdmissionPolicy
	// StreamRetrainer mines templates from batches of unmatched lines.
	StreamRetrainer = stream.Retrainer
	// StreamOnlineParser is a learn-per-line parser the engine can run on
	// its hot path instead of the match/buffer/retrain cycle.
	StreamOnlineParser = stream.OnlineParser
	// StreamCheckpointState is the persisted checkpoint payload.
	StreamCheckpointState = stream.State
	// StreamCorruptError reports an untrustworthy checkpoint file.
	StreamCorruptError = stream.CorruptError
)

// Admission policies for StreamConfig.Policy.
const (
	// StreamBackpressure blocks the source tail when the ring is full;
	// nothing is lost and crash recovery is deterministic.
	StreamBackpressure = stream.Backpressure
	// StreamLoadShed drops the incoming line when the ring is full and
	// counts it in StreamStats.Shed.
	StreamLoadShed = stream.LoadShed
)

// NewStreamEngine builds a streaming ingester, restoring the newest
// trustworthy checkpoint in cfg.CheckpointDir (a torn or corrupt current
// generation falls back to the previous one automatically):
//
//	eng, _ := logparse.NewStreamEngine(logparse.StreamConfig{
//		Open:          func() (io.ReadCloser, error) { return os.Open("app.log") },
//		CheckpointDir: "/var/lib/logstream",
//	})
//	err := eng.Run(ctx) // blocks; eng.Stats() is safe concurrently
//
// Stats is the one account of what the engine counted; a
// StreamConfig.Telemetry handle adds only what Stats lacks (checkpoint
// bytes, breaker transitions, durable-layer failures, duration histograms).
func NewStreamEngine(cfg StreamConfig) (*StreamEngine, error) {
	return stream.New(cfg)
}

// NewStreamRetrainer builds the default retrain chain: an optional primary
// mining algorithm (by registry name, configured from opts) degrading to
// SLCT over the batch of unmatched lines. primary == "" yields the
// SLCT-only chain.
func NewStreamRetrainer(primary string, opts Options, pol RobustPolicy) (StreamRetrainer, error) {
	var p core.Parser
	if primary != "" {
		parser, err := NewParser(primary, opts)
		if err != nil {
			return nil, err
		}
		p = parser
	}
	return stream.NewRetrainer(pol, p, slct.Options{Support: opts.Support, SupportFrac: opts.SupportFrac})
}

// NewOnlineParser builds the online learner for a streaming-native
// algorithm ("Drain" or "Spell", case-insensitive), configured from the
// same Options the batch facade reads. Assign it to StreamConfig.Online:
// the engine then learns in place on the hot path and checkpoints the
// learner's state alongside the template counts, so kill-and-recover runs
// converge to an uninterrupted run's digest. Each engine needs its own
// instance — learners are not safe for concurrent use.
func NewOnlineParser(algorithm string, opts Options) (StreamOnlineParser, error) {
	switch strings.ToLower(algorithm) {
	case "drain":
		return drain.NewStream(drain.Options{
			Depth:        opts.Depth,
			SimThreshold: opts.SimThreshold,
			MaxChildren:  opts.MaxChildren,
			Telemetry:    opts.Telemetry,
		}), nil
	case "spell":
		return spell.NewStream(spell.Options{
			Tau:       opts.Tau,
			Telemetry: opts.Telemetry,
		}), nil
	default:
		return nil, fmt.Errorf("logparse: no online learner for %q (want Drain or Spell)", algorithm)
	}
}

// StreamDigest is the canonical digest of a streaming run's outcome (sorted
// rendered templates with their event counts); two runs with equal digests
// learned the same templates and attributed lines identically. See
// DESIGN.md "Streaming & recovery semantics".
func StreamDigest(templates []Template, counts []int64) string {
	return stream.Digest(templates, counts)
}
