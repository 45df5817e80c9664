// Package stream is the toolkit's long-running ingestion service: the
// missing piece between the paper's one-shot batch parses and a production
// deployment that types an unbounded log stream. Both follow-up benchmarks
// (Zhu et al., ICSE'19; Petrescu et al., 2023) observe that real systems
// parse streams, not files — a parser that loses all state on crash, or
// whose memory grows with the backlog, never survives contact with
// production traffic.
//
// The Engine takes log lines pushed to it (PushBatch, or Feed over a
// reader), matches each line online
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
//   - bounded memory: admitted lines travel in pooled batches of up to 64,
//     each with one owner at a time (admitter, ring, consumer), through a
//     ring bounded in bytes with a configurable policy — Backpressure
//     blocks the pusher until its batch fits, LoadShed keeps the prefix
//     that fits and counts the rest as shed — and the unmatched buffer is
//     capped, shedding its oldest lines when retraining cannot keep up;
//
//   - overload isolation: a circuit breaker trips retraining to the
//     matcher-only tier after repeated failures and half-opens on an
//     exponential cooldown, so a poisoned buffer or a broken retrain tier
//     degrades the service to known-template matching instead of taking
//     it down.
//
// cmd/logstreamd feeds the engine a log file or a generated dataset through
// Feed, or serves it to the multi-tenant server (internal/server);
// internal/conform registers the
// resumed-after-kill path under the same canonical-digest equivalence as the
// batch path.
package stream

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"slices"
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
	// Backpressure blocks the pusher until the ring has room for its
	// whole batch. Nothing is lost, and replay after a crash is deterministic; the cost
	// is that a slow consumer stalls the pusher.
	Backpressure AdmissionPolicy = iota
	// LoadShed drops the incoming lines that do not fit the ring and counts
	// them in Stats.Shed. The pusher never stalls; shed lines are lost to
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

// Config configures an Engine. CheckpointDir is required; zero values
// elsewhere mean the documented defaults.
type Config struct {
	// CheckpointDir is the directory holding the checkpoint generations.
	CheckpointDir string
	// RingBytes bounds what the admission ring queues: line bytes plus
	// 2 KiB per batch for the batch itself (default 256 KiB). An empty
	// ring still takes one batch over it, so what is queued stays within
	// RingBytes plus one batch: ≤ 64 lines and 256 KiB, or one longer line.
	RingBytes int
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
	// MaxLineBytes caps one line (default core.DefaultMaxLineBytes);
	// longer lines are truncated at the cap and counted in
	// Stats.Oversized, as in core.ReadMessagesOpts. With a WAL it must not
	// exceed wal.MaxLineBytes (New returns ErrLineCapTooLarge).
	MaxLineBytes int
	// AfterLine, when non-nil, is called by the consumer after each
	// processed line with its line number, with the line's event
	// appended and the engine's lock released, so it may call back into
	// the engine. It is the instrumentation and fault-injection hook the
	// kill-and-recover tests use to hard-stop the engine at exact stream
	// positions.
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
	// recovery is checkpoint + client replay only (Feed's client replay
	// is reading its reader again from the start). See DESIGN.md §12 "Durability & WAL semantics".
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
	// LinesIn is every line admitted and accounted for:
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
	// Offset is the line number of the last processed line: non-empty
	// lines, counted in push order from the stream's first.
	Offset int64
	// Templates is the current template-set size.
	Templates int
	// Breaker is the retrain breaker state: "closed", "open", "half-open".
	Breaker string
	// OnlineParser is the online parser's algorithm name in online-parser
	// mode, empty in retrain mode.
	OnlineParser string
	// RingDepth and RingHighWater report the admission ring's current and
	// maximum occupancy in lines, RingBytes and RingBytesHighWater in the
	// bytes it charges, which Config.RingBytes bounds however far the
	// pusher runs ahead.
	RingDepth          int
	RingHighWater      int
	RingBytes          int
	RingBytesHighWater int
	// RecoveredFrom reports which checkpoint base the engine restored at
	// startup, before applying the delta chain: "" (fresh start),
	// "current", "previous", or "reset" (every base was corrupt; the engine
	// started empty).
	RecoveredFrom string
	// RecoveryError renders why the current base was not used: every
	// base's damage when RecoveredFrom is "reset", the current base's when
	// it is "previous"; empty otherwise.
	RecoveryError string
	// WALEnabled reports whether the push-mode write-ahead log is on.
	WALEnabled bool
	// WALLastSeq is the newest sequence number the WAL holds; WALSegments
	// is its current segment-file count.
	WALLastSeq  int64
	WALSegments int
	// WALReplayed counts lines the engine re-admitted from the WAL tail at
	// Serve start (this process's lifetime) — lines, not records: a batch
	// record holds up to 64, and its lines at or below the checkpoint are
	// not counted.
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
	return renderDigest(len(templates), func(i int) []string { return templates[i].Tokens }, counts).sum()
}

// digestRows are the rows a digest hashes — a template's tokens joined by
// ' ', a tab and its event count — rendered into one arena of exactly their
// size, each row followed by the '\n' the hash reads after it.
type digestRows struct {
	arena []byte
	rows  [][2]int // each row's [start, end) in arena, without its '\n'
}

// renderDigest renders the rows of templates 0..n-1: tokens(i) is template
// i's tokens, read and not kept, and counts[i] its count (0 past the end of
// counts). It is the part of a digest that must see the templates, so the
// engine runs it under e.mu and hashes outside.
func renderDigest(n int, tokens func(int) []string, counts []int64) digestRows {
	count := func(i int) int64 {
		if i < len(counts) {
			return counts[i]
		}
		return 0
	}
	size := 0
	var num [20]byte
	for i := range n {
		toks := tokens(i)
		size += max(len(toks)-1, 0) + len("\t\n") + len(strconv.AppendInt(num[:0], count(i), 10))
		for _, t := range toks {
			size += len(t)
		}
	}
	d := digestRows{arena: make([]byte, 0, size), rows: make([][2]int, n)}
	for i := range n {
		start := len(d.arena)
		for j, t := range tokens(i) {
			if j > 0 {
				d.arena = append(d.arena, ' ')
			}
			d.arena = append(d.arena, t...)
		}
		d.arena = strconv.AppendInt(append(d.arena, '\t'), count(i), 10)
		d.rows[i] = [2]int{start, len(d.arena)}
		d.arena = append(d.arena, '\n')
	}
	return d
}

// sum sorts the rows bytewise, as sort.Strings orders the same rows as
// strings, and returns the hex SHA-256 over them, each with its '\n'.
func (d digestRows) sum() string {
	slices.SortFunc(d.rows, func(a, b [2]int) int {
		return bytes.Compare(d.arena[a[0]:a[1]], d.arena[b[0]:b[1]])
	})
	h := sha256.New()
	for _, r := range d.rows {
		h.Write(d.arena[r[0] : r[1]+1])
	}
	return hex.EncodeToString(h.Sum(nil))
}
