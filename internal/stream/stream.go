// Package stream is the toolkit's long-running ingestion service: the
// missing piece between the paper's one-shot batch parses and a production
// deployment that types an unbounded log stream. Both follow-up benchmarks
// (Zhu et al., ICSE'19; Petrescu et al., 2023) observe that real systems
// parse streams, not files — a parser that loses all state on crash, or
// whose memory grows with the backlog, never survives contact with
// production traffic.
//
// The Engine tails a re-openable log source, matches each line online
// against a template Matcher (O(line length), the ingest-path component of
// internal/match), buffers the lines no known template covers, and
// periodically retrains on that buffer through a robust degradation chain
// whose cheap tier is SLCT. Around that core it provides
// the three robustness properties a long-running service needs:
//
//   - crash safety: the matcher's template set, per-template event counts,
//     the unmatched buffer and the stream offset are checkpointed as a
//     delta chain — every save appends one CRC-checked record of what
//     changed, and a base (temp file + rename, SHA-256 integrity header,
//     previous base retained) compacts the chain now and then; a torn or
//     corrupted base or record is detected at load time and recovery is
//     the newest loadable base plus every later delta.
//     Replay from a checkpoint is deterministic under the Backpressure
//     policy, so a killed-and-resumed run converges to the same template
//     set and event counts as an uninterrupted run;
//
//   - bounded memory: admission runs through a fixed-capacity ring with a
//     configurable policy — Backpressure blocks the tail, LoadShed drops
//     the incoming line and counts it — and the unmatched buffer is capped,
//     shedding its oldest lines when retraining cannot keep up;
//
//   - overload isolation: a circuit breaker trips retraining to the
//     matcher-only tier after repeated failures and half-opens on an
//     exponential cooldown, so a poisoned buffer or a broken retrain tier
//     degrades the service to known-template matching instead of taking
//     it down.
//
// cmd/logstreamd wires the engine to a log file, a generated dataset or the
// multi-tenant server (internal/server); internal/conform registers the
// resumed-after-kill path under the same canonical-digest equivalence as the
// batch path.
package stream

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"sort"
	"strconv"
	"time"

	"logparse/internal/core"
	"logparse/internal/seglog"
	"logparse/internal/stream/wal"
	"logparse/internal/telemetry"
)

// AdmissionPolicy selects what happens when the admission ring is full.
type AdmissionPolicy int

const (
	// Backpressure blocks the source tail until the consumer frees a slot.
	// Nothing is lost, and replay after a crash is deterministic; the cost
	// is that a slow consumer stalls the producer.
	Backpressure AdmissionPolicy = iota
	// LoadShed drops the incoming line when the ring is full and counts it
	// in Stats.Shed. The tail never stalls; shed lines are lost to
	// matching (and may or may not be re-seen after a crash, see DESIGN.md
	// "Streaming & recovery semantics").
	LoadShed
)

// String renders the policy name.
func (p AdmissionPolicy) String() string {
	switch p {
	case Backpressure:
		return "backpressure"
	case LoadShed:
		return "shed"
	default:
		return "unknown"
	}
}

// WALSyncPolicy aliases wal.SyncPolicy so push-mode callers configure WAL
// durability without importing the wal package directly.
type WALSyncPolicy = wal.SyncPolicy

const (
	// WALSyncBatch fsyncs once per acknowledged batch (group commit); the
	// only policy under which an acknowledgment survives power loss.
	WALSyncBatch = wal.SyncBatch
	// WALSyncNone flushes to the OS on commit but never fsyncs: records
	// survive a process kill, not a kernel crash or power cut.
	WALSyncNone = wal.SyncNone
)

// Config configures an Engine. Open and CheckpointDir are required; zero
// values elsewhere mean the documented defaults.
type Config struct {
	// Open returns a fresh reader over the log source from its beginning.
	// The engine re-opens on start and skips to the checkpointed offset,
	// so the source must replay the same lines in the same order (a file,
	// an object-store segment, a replayable queue). Required for Run; may
	// be nil for push-mode engines driven through Serve/PushBatch, where the
	// same replay duty falls on the pushing client.
	Open func() (io.ReadCloser, error)
	// CheckpointDir is the directory holding the checkpoint generations.
	CheckpointDir string
	// RingCapacity bounds the admission ring (default 1024 lines).
	RingCapacity int
	// Policy is the admission policy when the ring is full.
	Policy AdmissionPolicy
	// CheckpointEvery checkpoints after this many processed lines
	// (default 5000; negative disables periodic checkpoints — the final
	// and explicit Checkpoint calls still run).
	CheckpointEvery int
	// RetrainBatch triggers retraining once this many unmatched lines are
	// buffered (default 256).
	RetrainBatch int
	// MaxUnmatched caps the unmatched buffer; when retraining cannot keep
	// up (breaker open, tiers failing) the oldest lines beyond the cap are
	// shed and counted (default 4×RetrainBatch).
	MaxUnmatched int
	// Retrainer mines templates from a batch of unmatched lines. Defaults
	// to NewRetrainer with no primary tier (SLCT only). Ignored when
	// Online is set.
	Retrainer Retrainer
	// Online, when non-nil, switches the engine to online-parser mode: the
	// parser learns in place on the hot path — every line is assigned to a
	// group immediately (no unmatched buffer, no retrain cycle, no breaker
	// traffic) and the learner's serialised state travels inside each
	// checkpoint, so kill-and-recover replays converge to the digest of an
	// uninterrupted run. The engine owns the instance (learners are not
	// safe for concurrent use); multi-tenant callers construct one per
	// engine (server.Config.NewOnline).
	Online OnlineParser
	// MaxLineBytes caps one source line (default core.DefaultMaxLineBytes);
	// longer lines are truncated at the cap and counted, as in
	// core.ReadMessagesOpts.
	MaxLineBytes int
	// AfterLine, when non-nil, is called by the consumer after each
	// processed line with its source line number. It is the
	// instrumentation and fault-injection hook the kill-and-recover tests
	// use to hard-stop the engine at exact stream positions.
	AfterLine func(lineNo int64)
	// Now is the engine clock (checkpoint age, breaker cooldowns).
	// Defaults to time.Now; tests inject a fake.
	Now func() time.Time
	// CheckpointSeam is the checkpoint store's fault-injection seam, the
	// same shape as WALSeam: Wrap wraps every file a save writes — the
	// delta log's segments and a base's temp file — and Hook fires at
	// "save" (a save begins), "base" (its delta is durable, the base not
	// yet started), "rotate" (the base is published, superseded delta
	// segments not yet dropped), "truncate" and "dirsync".
	CheckpointSeam seglog.Seam
	// Telemetry, when non-nil, publishes what Stats does not hold to a
	// metrics registry: checkpoint bytes and file counts, breaker
	// transitions, durable-layer failures, and retrain/checkpoint duration
	// histograms (see DESIGN.md §9 for the catalogue). Every count Stats
	// reports is read from Stats. Instrumentation is behavior-neutral and,
	// when nil, free.
	Telemetry *telemetry.Handle
	// WALDir, when non-empty, enables the push-mode write-ahead log:
	// every line PushBatch admits is appended to the WAL before the
	// batch is acknowledged (one fsync per batch — group commit), Serve
	// replays the WAL tail beyond the checkpoint before admitting new
	// pushes, and each successful checkpoint truncates the segments it
	// covers. With it, an acknowledged line survives kill -9; without it,
	// recovery is checkpoint + client replay only. Run (file mode)
	// ignores the WAL: the re-openable source is its own durability.
	// See DESIGN.md §12 "Durability & WAL semantics".
	WALDir string
	// WALSync is the WAL commit durability policy (default wal.SyncBatch:
	// one fsync per acknowledged batch).
	WALSync wal.SyncPolicy
	// WALSegmentBytes is the WAL segment rotation threshold (default 4 MiB).
	WALSegmentBytes int64
	// WALBufferBytes sizes the WAL append buffer (default 64 KiB); tests
	// shrink it to force auto-flushes between appends and commits.
	WALBufferBytes int
	// WALSeam is the WAL's fault-injection seam (see seglog.Seam): Wrap
	// wraps each segment file handle for torn-write and failed-fsync crash
	// tests (faultinject.WALCrashFile); Hook fires at the WAL crash points —
	// "push" between a batch's WAL appends and its ring admission,
	// "rotate" mid segment rotation, "truncate" mid checkpoint truncation,
	// "dirsync" before a new segment's directory fsync. A non-nil return
	// freezes the operation at exactly that point and ends the serve
	// incarnation — how the recovery tests pin each enumerated crash
	// point. The hook runs under engine locks and must not call back in.
	WALSeam seglog.Seam
	// EventStoreDir, when non-empty, enables the queryable parsed-event
	// store (internal/eventstore): every per-line match decision —
	// matched, unmatched, late-matched after a retrain — is appended as
	// an event, blocks are finalized and fsynced together with each
	// checkpoint (so no block ever spans a successful-checkpoint
	// boundary), and on restart the store is aligned back to the restored
	// offset so replay re-emits exactly the dropped events. A store
	// failure ends the incarnation with a typed *DurableError rather
	// than serving with a silent gap in the event history. See DESIGN.md
	// §13 "Event store format & query semantics".
	EventStoreDir string
	// EventStoreBlockBytes is the raw block size at which the store seals
	// a block (default 64 KiB, ≈ 30–60 k events).
	EventStoreBlockBytes int
	// EventStoreSeam is the event store's fault-injection seam, the same
	// shape as WALSeam; its Hook additionally fires at "block" and
	// "finalize" (see eventstore.Options.Seam).
	EventStoreSeam seglog.Seam
}

// Stats is a point-in-time health snapshot of an Engine. All counters are
// cumulative across crash recoveries (they are checkpointed), except
// Checkpoints/CheckpointErrors which count this process's lifetime.
type Stats struct {
	// LinesIn is every line taken from the source and accounted for:
	// Processed + Shed + RingDepth.
	LinesIn int64
	// Processed counts lines the consumer fully handled.
	Processed int64
	// Matched counts lines covered by a known template (including lines
	// matched from the unmatched buffer after a retrain).
	Matched int64
	// Shed counts lines dropped at admission under LoadShed.
	Shed int64
	// Empty counts lines with no tokens (whitespace-only content).
	Empty int64
	// Oversized counts lines truncated at MaxLineBytes.
	Oversized int64
	// Unparsed counts unmatched lines that retraining could not cover
	// (below support, or retrain batch dropped after a failure).
	Unparsed int64
	// UnmatchedDropped counts buffered lines shed at the MaxUnmatched cap.
	UnmatchedDropped int64
	// UnmatchedBuffered is the current unmatched-buffer depth.
	UnmatchedBuffered int
	// Retrains and RetrainFailures count retrain outcomes.
	Retrains        int64
	RetrainFailures int64
	// Checkpoints and CheckpointErrors count checkpoint saves this
	// process attempted.
	Checkpoints      int64
	CheckpointErrors int64
	// CheckpointGen is the generation of the newest save — restored or
	// written, so it keeps rising across restarts — and DeltasSinceBase the
	// number of delta records recovery would apply on top of the base.
	CheckpointGen   uint64
	DeltasSinceBase int
	// CheckpointAge is the time since the last successful save in this
	// process; −1 when none has happened yet.
	CheckpointAge time.Duration
	// Offset is the source line number of the last processed line.
	Offset int64
	// Templates is the current template-set size.
	Templates int
	// Breaker is the retrain breaker state: "closed", "open", "half-open".
	Breaker string
	// OnlineParser is the online parser's algorithm name in online-parser
	// mode, empty in retrain mode.
	OnlineParser string
	// RingDepth and RingHighWater report the admission ring's current and
	// maximum occupancy — memory is bounded by RingCapacity regardless of
	// how far the producer runs ahead.
	RingDepth     int
	RingHighWater int
	// RecoveredFrom reports which checkpoint base the engine restored at
	// startup, before applying the delta chain: "" (fresh start),
	// "current", "previous", or "reset" (every base was corrupt; the engine
	// started empty).
	RecoveredFrom string
	// RecoveryError is the rendered *AllCorruptError of a corrupt-reset
	// start, empty after a healthy one.
	RecoveryError string
	// WALEnabled reports whether the push-mode write-ahead log is on.
	WALEnabled bool
	// WALLastSeq is the newest sequence number the WAL holds; WALSegments
	// is its current segment-file count.
	WALLastSeq  int64
	WALSegments int
	// WALReplayed counts records the engine re-admitted from the WAL tail
	// at Serve start (this process's lifetime).
	WALReplayed int64
	// WALTornTails and WALCorruptDropped report the crash damage repaired
	// when the WAL was opened: partially-written final records truncated
	// away, and files discarded for body corruption.
	WALTornTails      int
	WALCorruptDropped int
	// WALError is the rendered write-ahead-log failure that ended the
	// current serve incarnation, empty while healthy.
	WALError string
	// EventStoreEnabled reports whether the parsed-event store is on.
	EventStoreEnabled bool
	// EventsAppended counts events this process appended to the store.
	EventsAppended int64
	// EventStoreLastSeq is the newest finalized event's sequence number;
	// EventStoreSegments and EventStoreBlocks are the store's current
	// file and finalized-block counts.
	EventStoreLastSeq  int64
	EventStoreSegments int
	EventStoreBlocks   int
	// EventStoreTornTails and EventStoreCorruptDropped report the crash
	// damage repaired when the store was opened; EventStoreBlocksDropped
	// counts finalized blocks dropped by the startup alignment to the
	// restored checkpoint (replay re-emits their events).
	EventStoreTornTails      int
	EventStoreCorruptDropped int
	EventStoreBlocksDropped  int
	// EventStoreError is the rendered store failure that ended the
	// current incarnation, empty while healthy.
	EventStoreError string
}

// Digest is the canonical digest of an engine's observable outcome: the
// SHA-256 over the sorted rendered templates with their event counts. Two
// runs that learned the same template set and attributed the same number of
// lines to each event have equal digests regardless of template naming or
// discovery order — the quantity the kill-and-recover equivalence tests
// compare.
func Digest(templates []core.Template, counts []int64) string {
	rows := make([]string, len(templates))
	for i, t := range templates {
		c := int64(0)
		if i < len(counts) {
			c = counts[i]
		}
		rows[i] = t.String() + "\t" + strconv.FormatInt(c, 10)
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}
