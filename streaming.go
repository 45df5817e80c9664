package logparse

// Streaming ingestion (the long-running service layer). The paper's
// experiments are one-shot batch parses; a deployment types an unbounded
// stream and must survive crashes, overload and broken retraining. The
// StreamEngine takes pushed lines, matches them online against the
// known template set, buffers what no template covers, and retrains on that
// buffer through a robust degradation chain — with atomic checkpoints
// (template set, event counts, unmatched buffer, stream offset), a bounded
// admission ring (backpressure or load shedding), and a circuit breaker
// that degrades retraining to matcher-only service under repeated failure.

import (
	"context"
	"fmt"
	"io"
	"strings"

	"logparse/internal/core"
	"logparse/internal/parsers"
	"logparse/internal/parsers/slct"
	"logparse/internal/seglog"
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
	// StreamCorruptError reports an untrustworthy persisted file — a
	// checkpoint base, or a segment of the delta log, WAL or event store;
	// errors.As reaches it through StreamEngine's RecoveryError.
	StreamCorruptError = seglog.CorruptError
)

// Admission policies for StreamConfig.Policy.
const (
	// StreamBackpressure blocks the pusher when the ring is full;
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
//		CheckpointDir: "/var/lib/logstream",
//	})
//	f, _ := os.Open("app.log")
//	err := logparse.FeedStream(ctx, eng, f) // blocks; eng.Stats() is safe concurrently
//
// Stats is the one account of what the engine counted; a
// StreamConfig.Telemetry handle adds only what Stats lacks (checkpoint
// bytes, breaker transitions, durable-layer failures, duration histograms).
func NewStreamEngine(cfg StreamConfig) (*StreamEngine, error) {
	return stream.New(cfg)
}

// FeedStream serves eng and pushes every line of r into it, stopping it at
// the end of r (see stream.Feed). Reading the same r again from its start
// after a crash resumes the run: the lines the checkpoint covers are
// skipped.
func FeedStream(ctx context.Context, eng *StreamEngine, r io.Reader) error {
	return stream.Feed(ctx, eng, r)
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
	row, err := parsers.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	if row.Online == nil {
		return nil, fmt.Errorf("logparse: no online learner for %s (want one of %s)", row.Name,
			strings.Join(parsers.Names(func(r *parsers.Row) bool { return r.Online != nil }), ", "))
	}
	return row.Online(opts), nil
}

// StreamDigest is the canonical digest of a streaming run's outcome (sorted
// rendered templates with their event counts); two runs with equal digests
// learned the same templates and attributed lines identically. See
// DESIGN.md "Streaming & recovery semantics".
func StreamDigest(templates []Template, counts []int64) string {
	return stream.Digest(templates, counts)
}
