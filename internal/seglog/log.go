package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// Options configures a Log.
type Options struct {
	// Dir is the directory holding the segment files (created if absent).
	Dir string
	// SegmentBytes is the size at which Full reports the active segment
	// ready to rotate, and below which Ensure reopens the newest segment
	// for append instead of starting another. Zero means a segment never
	// has room: every Ensure starts a fresh file and rotation is the
	// owner's decision alone (the checkpoint delta log).
	SegmentBytes int64
	// Seam is the fault-injection seam; the zero value is production.
	Seam Seam
}

// OpenInfo reports what Open found and repaired.
type OpenInfo struct {
	// Segments, Frames and Units count the surviving files, their frames
	// and the frames' items.
	Segments int
	Frames   int
	Units    int64
	// LastSeq is the newest surviving frame's MaxSeq (0 when empty).
	LastSeq uint64
	// TornTails counts files whose partially-written final frame was
	// truncated away — the expected signature of a crash mid-write.
	TornTails int
	// TornBytes is the total byte count those truncations removed.
	TornBytes int64
	// CorruptDropped counts files truncated or deleted because their
	// bytes (or their ordering) could not be trusted, rather than for a
	// torn tail.
	CorruptDropped int
}

// Segment describes one segment file.
type Segment struct {
	Path     string
	FirstSeq uint64
	// LastSeq is the newest frame's MaxSeq as of the last Open, Rotate or
	// CutTail; it is not maintained while the segment is active.
	LastSeq uint64
	Size    int64
}

// Log is the writer over one directory of segments: the surviving files
// in sequence order plus at most one active segment open for append. It
// does no locking of its own — the owning WAL or Store serializes every
// call behind its mutex. The first failed write, sync or rotation latches:
// after it the file position is unknowable, so Check refuses until the
// log is reopened (which re-verifies the on-disk state).
type Log struct {
	spec *Spec
	opts Options

	segs []Segment // the last one is the active segment while f != nil
	f    *os.File
	w    File // f through the seam

	unsynced bool // bytes written to the active segment since its last fsync
	dirDirty bool // a segment was created or deleted since the last directory fsync
	err      error
	closed   bool
}

// ErrClosed is returned by operations on a closed Log.
var ErrClosed = errors.New("seglog: closed")

// errOverlap stops Open's walk of a file whose sequence range overlaps
// its predecessor's.
var errOverlap = errors.New("seglog: overlapping segment")

// Open scans dir in sequence order and repairs crash damage: a torn tail
// is truncated away (and, anywhere but the final file, means writes went
// on past damage, so later files are untrusted); a corrupt frame truncates
// its file and deletes every later one; a file whose range overlaps its
// predecessor's is deleted along with every later one; a file left with
// no frames (a crash between creating a segment and its first durable
// frame) is removed and recreated lazily. each, when non-nil, sees every
// surviving frame with its segment's index in Segments. The newest
// segment is reopened by the first Ensure, not here, so CutTail can run
// first without fighting an open append handle.
func Open[T any](spec *Spec, opts Options, verify func([]byte) (Frame, T, error), each func(seg int, off int64, fr Frame, aux T)) (*Log, OpenInfo, error) {
	var info OpenInfo
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("%s: dir: %w", spec.Name, err)
	}
	names, err := spec.list(opts.Dir)
	if err != nil {
		return nil, info, err
	}
	l := &Log{spec: spec, opts: opts}
	for i, path := range names {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, info, fmt.Errorf("%s: read segment: %w", spec.Name, err)
		}
		si, werr := Walk(spec, data, verify, func(off int64, fr Frame, aux T) error {
			// A frame verified, so the walk has validated the header and
			// its firstSeq bytes are there to read. The file's first frame
			// is where an overlap with the previous file shows.
			if off == int64(spec.HeaderSize()) &&
				spec.overlaps(binary.LittleEndian.Uint64(data[len(spec.Magic):]), info.LastSeq) {
				return errOverlap
			}
			if each != nil {
				each(len(l.segs), off, fr, aux)
			}
			return nil
		})
		untrusted := true // whether everything after this file is dropped
		switch werr.(type) {
		case nil:
			untrusted = false
		case *TornTailError:
			info.TornTails++
			info.TornBytes += int64(len(data)) - si.Good
			untrusted = i != len(names)-1
		case *CorruptError:
			info.CorruptDropped++
		default:
			if werr != errOverlap {
				return nil, info, werr
			}
			info.CorruptDropped++
		}
		if si.Frames == 0 {
			if err := os.Remove(path); err != nil {
				return nil, info, fmt.Errorf("%s: drop empty segment: %w", spec.Name, err)
			}
		} else {
			if werr != nil {
				if err := os.Truncate(path, si.Good); err != nil {
					return nil, info, fmt.Errorf("%s: truncate damaged segment: %w", spec.Name, err)
				}
			}
			l.segs = append(l.segs, Segment{Path: path, FirstSeq: si.FirstSeq, LastSeq: si.LastSeq, Size: si.Good})
			info.Frames += si.Frames
			info.Units += si.Units
			info.LastSeq = si.LastSeq
		}
		if untrusted {
			for _, later := range names[i+1:] {
				if err := os.Remove(later); err != nil {
					return nil, info, fmt.Errorf("%s: drop untrusted segment: %w", spec.Name, err)
				}
				info.CorruptDropped++
			}
			break
		}
	}
	info.Segments = len(l.segs)
	return l, info, nil
}

// fail latches a failed file operation.
func (l *Log) fail(what string, err error) error {
	return l.Fail(fmt.Errorf("%s: %s: %w", l.spec.Name, what, err))
}

// Fail latches err as the log's failure (the first one wins) and returns
// it — for the owner's own fatal conditions, such as an out-of-order
// append.
func (l *Log) Fail(err error) error {
	if l.err == nil {
		l.err = err
	}
	return err
}

// Check returns ErrClosed after Close, else the latched failure, else nil.
func (l *Log) Check() error {
	if l.closed {
		return ErrClosed
	}
	return l.err
}

// Err returns the latched failure, nil while healthy.
func (l *Log) Err() error { return l.err }

// Closed reports whether Close has run.
func (l *Log) Closed() bool { return l.closed }

// Segments returns the segment files in sequence order (a view; do not
// retain across calls).
func (l *Log) Segments() []Segment { return l.segs }

// Active reports whether a segment is open for append.
func (l *Log) Active() bool { return l.f != nil }

// Size returns the active segment's byte length.
func (l *Log) Size() int64 { return l.segs[len(l.segs)-1].Size }

// Full reports whether the active segment has reached SegmentBytes.
func (l *Log) Full() bool { return l.Size() >= l.opts.SegmentBytes }

// Unsynced reports whether the active segment holds bytes written since
// its last fsync.
func (l *Log) Unsynced() bool { return l.unsynced }

// Ensure makes a segment active: the one already open, else the newest
// file when it still has room (so restarts do not proliferate tiny
// segments), else a fresh file whose first frame will start at firstSeq —
// created exclusively, header written. created reports the last case.
func (l *Log) Ensure(firstSeq uint64) (created bool, err error) {
	if l.f != nil {
		return false, nil
	}
	if n := len(l.segs); n > 0 && l.segs[n-1].Size < l.opts.SegmentBytes {
		f, err := os.OpenFile(l.segs[n-1].Path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return false, l.fail("reopen segment", err)
		}
		l.install(f)
		return false, nil
	}
	path := filepath.Join(l.opts.Dir, fmt.Sprintf("%s-%020d.seg", l.spec.Prefix, firstSeq))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return false, l.fail("create segment", err)
	}
	l.segs = append(l.segs, Segment{Path: path, FirstSeq: firstSeq})
	l.install(f)
	l.dirDirty = true
	if _, err := l.Write(l.spec.Header(firstSeq)); err != nil {
		return false, err
	}
	return true, nil
}

// install wires a file handle, through the seam, as the active segment.
func (l *Log) install(f *os.File) {
	l.f, l.w = f, f
	if l.opts.Seam.Wrap != nil {
		l.w = l.opts.Seam.Wrap(f)
	}
}

// Write appends p to the active segment. It is the io.Writer the WAL's
// append buffer drains into.
func (l *Log) Write(p []byte) (int, error) {
	n, err := l.w.Write(p)
	l.segs[len(l.segs)-1].Size += int64(n)
	l.unsynced = true
	if err != nil {
		return n, l.fail("write", err)
	}
	return n, nil
}

// Sync fsyncs the active segment and then, when a segment was created or
// deleted since the last one, the directory — without which a power cut
// can drop a new file's directory entry together with every synced frame
// in it. The directory fsync is therefore once per segment, never per
// commit, and a failure of either is a failure of the commit.
func (l *Log) Sync() error {
	if err := l.w.Sync(); err != nil {
		return l.fail("fsync", err)
	}
	l.unsynced = false
	if !l.dirDirty {
		return nil
	}
	if err := l.opts.Seam.Fire("dirsync"); err != nil {
		return l.Fail(err)
	}
	if err := SyncDir(l.opts.Dir); err != nil {
		return l.fail("directory fsync", err)
	}
	l.dirDirty = false
	return nil
}

// Rotate seals the active segment, whose newest frame ends at lastSeq; the
// next Ensure starts its successor, so that file's header carries the
// exact first seq. Syncing first is the caller's policy. The "rotate" hook
// fires between seal and successor — the mid-rotation crash point.
func (l *Log) Rotate(lastSeq uint64) error {
	err := l.f.Close()
	l.f, l.w, l.unsynced = nil, nil, false
	l.segs[len(l.segs)-1].LastSeq = lastSeq
	if err != nil {
		return l.fail("seal segment", err)
	}
	if err := l.opts.Seam.Fire("rotate"); err != nil {
		return l.Fail(err)
	}
	return nil
}

// DropHead deletes the oldest sealed segments whose frames all lie at or
// below through, returning how many went. The active segment is never
// deleted. The "truncate" hook fires before each deletion — the
// mid-truncation crash point. A failure here is garbage-collection debt,
// not damage, so it does not latch.
func (l *Log) DropHead(through uint64) (int, error) {
	if l.closed {
		return 0, ErrClosed
	}
	n := 0
	for len(l.segs) > 0 && l.segs[0].LastSeq <= through && (l.f == nil || len(l.segs) > 1) {
		if err := l.opts.Seam.Fire("truncate"); err != nil {
			return n, err
		}
		if err := os.Remove(l.segs[0].Path); err != nil {
			return n, fmt.Errorf("%s: truncate: %w", l.spec.Name, err)
		}
		l.segs = l.segs[1:]
		l.dirDirty = true
		n++
	}
	return n, nil
}

// CutTail shrinks the newest segment to size bytes, its newest remaining
// frame ending at lastSeq — or deletes the file when size is 0. No segment
// may be active.
func (l *Log) CutTail(size int64, lastSeq uint64) error {
	n := len(l.segs) - 1
	if size == 0 {
		if err := os.Remove(l.segs[n].Path); err != nil {
			return l.fail("remove tail segment", err)
		}
		l.segs = l.segs[:n]
		l.dirDirty = true
		return nil
	}
	if err := os.Truncate(l.segs[n].Path, size); err != nil {
		return l.fail("truncate tail segment", err)
	}
	l.segs[n].Size, l.segs[n].LastSeq = size, lastSeq
	return nil
}

// Close releases the active segment's handle without syncing (the
// caller's policy). Further Checks return ErrClosed.
func (l *Log) Close() error {
	l.closed = true
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f, l.w = nil, nil
	if err != nil {
		return fmt.Errorf("%s: close: %w", l.spec.Name, err)
	}
	return nil
}
