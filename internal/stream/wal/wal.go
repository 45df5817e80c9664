package wal

import (
	"bufio"
	"errors"
	"fmt"
	"sync"
	"time"

	"logparse/internal/seglog"
	"logparse/internal/telemetry"
)

// SyncPolicy selects what a Commit makes durable.
type SyncPolicy int

const (
	// SyncBatch fsyncs the active segment once per Commit — the group
	// commit: one fsync covers every record appended since the previous
	// Commit, so per-line cost amortizes over the admission batch. This is
	// the only policy under which an acknowledgment survives power loss.
	SyncBatch SyncPolicy = iota
	// SyncNone flushes to the OS on Commit but never fsyncs: records
	// survive a process kill (the page cache persists) but not a kernel
	// crash or power cut. It is an operator option (logstreamd -wal-sync
	// none, in README) for hosts where an fsync per acknowledged batch
	// costs more than that window.
	SyncNone
)

// Options configures a WAL. Dir is required; zero values elsewhere mean
// the documented defaults.
type Options struct {
	// Dir is the directory holding the segment files.
	Dir string
	// SegmentBytes is the rotation threshold (default 4 MiB): after a
	// Commit leaves the active segment at or beyond it, the segment is
	// sealed and the next append starts a fresh one. Rotation only happens
	// at commit boundaries, so records never span segments.
	SegmentBytes int64
	// BufferBytes sizes the append buffer (default 64 KiB). Appends
	// between Commits accumulate here; a filled buffer auto-flushes to the
	// OS, which is why a crash can leave records on disk that were never
	// acknowledged — recovery replays a superset, never a subset, of what
	// was acknowledged.
	BufferBytes int
	// Sync is the Commit durability policy.
	Sync SyncPolicy
	// Seam is the fault-injection seam (see seglog.Seam): Wrap wraps each
	// segment's file handle, Hook fires at the "rotate", "truncate" and
	// "dirsync" crash points.
	Seam seglog.Seam
	// Telemetry, when non-nil, publishes stream.wal.* metrics.
	Telemetry *telemetry.Handle
	// Now is the clock for the fsync-latency histogram (default time.Now).
	Now func() time.Time
}

// ErrClosed is returned by operations on a closed WAL.
var ErrClosed = seglog.ErrClosed

type walTelemetry struct {
	appends    *telemetry.Counter
	bytes      *telemetry.Counter
	commits    *telemetry.Counter
	commitErrs *telemetry.Counter
	created    *telemetry.Counter
	deleted    *telemetry.Counter
	replayed   *telemetry.Counter
	fsyncSec   *telemetry.Histogram
}

func newWALTelemetry(h *telemetry.Handle) walTelemetry {
	return walTelemetry{
		appends:    h.Counter("stream.wal.appends"),
		bytes:      h.Counter("stream.wal.bytes"),
		commits:    h.Counter("stream.wal.commits"),
		commitErrs: h.Counter("stream.wal.commit.errors"),
		created:    h.Counter("stream.wal.segments.created"),
		deleted:    h.Counter("stream.wal.segments.deleted"),
		replayed:   h.Counter("stream.wal.replayed"),
		fsyncSec:   h.Histogram("stream.wal.fsync.seconds", telemetry.DurationBuckets),
	}
}

// WAL is one tenant's write-ahead log. Append buffers a record, Commit
// makes the batch durable (the acknowledgment barrier), Replay feeds the
// surviving records back after a restart, and TruncateThrough garbage-
// collects segments a checkpoint has covered. Safe for concurrent use;
// the engine serializes appends behind its push lock, but truncation
// (driven by the checkpointer) and stats run concurrently.
type WAL struct {
	opts Options
	tm   walTelemetry

	mu      sync.Mutex
	log     *seglog.Log   // segment files, repair, rotation, the latched first failure
	bw      *bufio.Writer // the append buffer, draining into log
	lastSeq uint64
	head    []byte // AppendBatch's reusable header-and-line-table scratch
}

// Open scans dir, repairs crash damage (seglog.Open: a torn tail is
// truncated, corrupt bytes and everything after them discarded), and
// returns a WAL positioned to append after the newest surviving record.
// The OpenInfo counts records as frames and their lines as units.
func Open(opts Options) (*WAL, seglog.OpenInfo, error) {
	if opts.Dir == "" {
		return nil, seglog.OpenInfo{}, errors.New("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 4 << 20
	}
	if opts.BufferBytes <= 0 {
		opts.BufferBytes = 64 * 1024
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	log, info, err := seglog.Open(&spec, seglog.Options{Dir: opts.Dir, SegmentBytes: opts.SegmentBytes, Seam: opts.Seam}, verify, nil)
	if err != nil {
		return nil, info, err
	}
	w := &WAL{opts: opts, tm: newWALTelemetry(opts.Telemetry), log: log, lastSeq: info.LastSeq}
	w.bw = bufio.NewWriterSize(log, opts.BufferBytes)
	return w, info, nil
}

// Append buffers a record holding the one line payload, numbered seq.
func (w *WAL) Append(seq uint64, payload []byte) error {
	return w.AppendBatch(seq, payload, []Line{{End: len(payload)}})
}

// AppendBatch buffers one record holding data's lines, numbered seq,
// seq+1, …: line i is data[lines[i-1].End:lines[i].End]. seq must exceed
// every previously appended seq. The bytes are copied into the buffer
// before return, so the caller may reuse them. Durability comes only from
// the next Commit.
func (w *WAL) AppendBatch(seq uint64, data []byte, lines []Line) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Check(); err != nil {
		return err
	}
	if seq == 0 || seq <= w.lastSeq {
		return w.log.Fail(fmt.Errorf("wal: append seq %d not above %d", seq, w.lastSeq))
	}
	if len(lines) == 0 || lines[len(lines)-1].End != len(data) {
		return w.log.Fail(fmt.Errorf("wal: append of %d lines that do not end at the %d bytes given", len(lines), len(data)))
	}
	w.head = appendBatchHead(w.head[:0], seq, data, lines)
	if size := len(w.head) - recHeaderSize + len(data); size > MaxRecordBytes {
		return w.log.Fail(fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", size))
	}
	if !w.log.Active() {
		// The newest segment while it has room, else a fresh one whose
		// header carries this record's seq.
		created, err := w.log.Ensure(seq)
		if err != nil {
			return err
		}
		if created {
			w.tm.created.Inc()
		}
	}
	if _, err := w.bw.Write(w.head); err != nil {
		return w.log.Fail(fmt.Errorf("wal: append: %w", err))
	}
	if _, err := w.bw.Write(data); err != nil {
		return w.log.Fail(fmt.Errorf("wal: append: %w", err))
	}
	w.lastSeq = seq + uint64(len(lines)) - 1
	w.tm.appends.Add(uint64(len(lines)))
	w.tm.bytes.Add(uint64(len(w.head) + len(data)))
	return nil
}

// Commit makes every record appended since the previous Commit durable:
// flush the buffer, fsync once (under SyncBatch), and — when the active
// segment has reached SegmentBytes — seal it and let the next append
// start a fresh one. This is the acknowledgment barrier: only after
// Commit returns nil may the admission batch be acknowledged.
func (w *WAL) Commit() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.log.Check(); err != nil {
		return err
	}
	if !w.log.Active() {
		return nil
	}
	err := w.syncActiveLocked()
	if err == nil {
		w.tm.commits.Inc()
		if w.log.Full() {
			err = w.log.Rotate(w.lastSeq)
		}
	}
	if err != nil {
		w.tm.commitErrs.Inc()
	}
	return err
}

// syncActiveLocked flushes the buffer and applies the sync policy.
func (w *WAL) syncActiveLocked() error {
	if err := w.bw.Flush(); err != nil {
		return w.log.Fail(fmt.Errorf("wal: flush: %w", err))
	}
	if w.opts.Sync == SyncNone {
		return nil
	}
	start := w.opts.Now()
	err := w.log.Sync()
	w.tm.fsyncSec.Observe(w.opts.Now().Sub(start).Seconds())
	return err
}

// Replay feeds every line on disk, in seq order, to fn, with its
// over-long mark (false for a one-line record). The engine calls it once at
// Serve start, before any append of the new incarnation; pending unflushed
// appends are not visible to it. fn's error stops the walk and is
// returned; the count is of lines fed.
func (w *WAL) Replay(fn func(seq uint64, line []byte, oversized bool) error) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log.Closed() {
		return 0, ErrClosed
	}
	if w.log.Active() {
		if err := w.bw.Flush(); err != nil {
			return 0, w.log.Fail(fmt.Errorf("wal: flush before replay: %w", err))
		}
	}
	var n int64
	_, err := seglog.Scan(&spec, w.opts.Dir, seglog.ScanInfo{}, verify, func(_ int, _ int64, _ seglog.Frame, rec record) error {
		return rec.lines(func(seq uint64, line []byte, oversized bool) error {
			if err := fn(seq, line, oversized); err != nil {
				return err
			}
			n++
			w.tm.replayed.Inc()
			return nil
		})
	})
	return n, err
}

// TruncateThrough deletes sealed segments entirely covered by seq — the
// checkpoint-coordination point: after a checkpoint at offset N is
// durable, lines with seq ≤ N are redundant, and so is a segment whose
// last record ends at or below N. A segment whose last record straddles N
// stays. The active segment is never deleted (it may hold committed
// records above seq).
func (w *WAL) TruncateThrough(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	n, err := w.log.DropHead(seq)
	w.tm.deleted.Add(uint64(n))
	return err
}

// LastSeq returns the newest appended (not necessarily committed)
// sequence number; 0 when the log is empty.
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastSeq
}

// Segments returns the current segment-file count.
func (w *WAL) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.log.Segments())
}

// Err returns the latched failure, nil while healthy.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Err()
}

// Close flushes and syncs the active segment and releases the file
// handle. Further operations return ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.log.Closed() {
		return nil
	}
	err := w.log.Err()
	if err == nil && w.log.Active() {
		err = w.syncActiveLocked()
	}
	if cerr := w.log.Close(); err == nil {
		err = cerr
	}
	return err
}
