// Package seglog is the one owner of the decisions "how a directory of
// append-only segment files is named, framed, verified, repaired and
// rotated". The write-ahead log (internal/stream/wal) and the parsed-event
// store (internal/eventstore) are both built on it: each supplies a Spec
// (file prefix, magic line, sequence discipline) and a verify-one-frame
// function for its own codec — a CRC-checked record, a checksummed block —
// and gets back the frame walk, the torn-vs-corrupt classification, the
// crash repair, the read-only scan and the active-segment lifecycle.
//
// Segment file layout:
//
//	<magic line>
//	firstSeq (8 bytes, little-endian)
//	frame*
//
// Files are named <prefix>-%020d.seg by firstSeq, so lexical order is
// sequence order. A frame cut short by a crash is a torn tail: the valid
// prefix before it is trustworthy and the writer's Open truncates the file
// there. Bytes that are present but fail verification — a checksum
// mismatch, an implausible length, a sequence out of order — are
// corruption: nothing from that point on can be trusted to be ordered or
// complete, so Open truncates the file and deletes every later one.
package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// File is the writable handle a segment runs on — *os.File in production,
// a fault-injection wrapper (faultinject.WALCrashFile) in crash tests.
type File interface {
	io.Writer
	Sync() error
}

// Seam is the fault-injection seam of one segment log.
type Seam struct {
	// Wrap, when non-nil, wraps each segment file handle opened for
	// append — how tests tear writes and fail fsyncs.
	Wrap func(*os.File) File
	// Hook, when non-nil, is called at the named crash points: seglog's
	// own "rotate" (a full segment is sealed, its successor not yet
	// started), "truncate" (before each head-segment deletion) and
	// "dirsync" (before the directory fsync that makes a created or
	// deleted segment durable), plus the points the layers above fire
	// ("push", "block", "finalize"). A non-nil return aborts the
	// operation at exactly that point, leaving on-disk state
	// mid-operation — how the recovery tests freeze the states a kill -9
	// can produce. The hook runs under the owner's lock and must not call
	// back in.
	Hook func(point string) error
}

// Fire calls the hook for one crash point; nil when no hook is set.
func (s Seam) Fire(point string) error {
	if s.Hook == nil {
		return nil
	}
	return s.Hook(point)
}

// Spec is the format identity of one segment-log family.
type Spec struct {
	// Name prefixes error messages ("wal", "eventstore").
	Name string
	// Prefix starts every segment file name ("wal", "evt").
	Prefix string
	// Magic is the header's magic line, newline included.
	Magic string
	// Strict selects the sequence discipline. Strict logs hold seqs that
	// strictly increase from a firstSeq ≥ 1, within and across files.
	// Otherwise seqs are non-negative int64 values that never decrease,
	// and a file's first frame starts exactly at the header's firstSeq.
	Strict bool
}

// HeaderSize is the magic line plus the 8-byte firstSeq.
func (s *Spec) HeaderSize() int { return len(s.Magic) + 8 }

// Header returns the encoded header of a segment starting at firstSeq.
func (s *Spec) Header(firstSeq uint64) []byte {
	buf := make([]byte, 0, s.HeaderSize())
	buf = append(buf, s.Magic...)
	return binary.LittleEndian.AppendUint64(buf, firstSeq)
}

// list returns dir's segment files in sequence order.
func (s *Spec) list(dir string) ([]string, error) {
	names, err := filepath.Glob(filepath.Join(dir, s.Prefix+"-*.seg"))
	if err != nil {
		return nil, fmt.Errorf("%s: scan dir: %w", s.Name, err)
	}
	sort.Strings(names) // zero-padded firstSeq names sort numerically
	return names, nil
}

// TornTailError reports a segment whose final frame was cut short — the
// signature of a crash mid-write, not of data damage. Offset is where the
// valid prefix ends; everything before it is intact and trustworthy.
type TornTailError struct {
	Log    string // the Spec's Name
	Path   string
	Offset int64
}

func (e *TornTailError) Error() string {
	return fmt.Sprintf("%s: torn tail in %s at offset %d", e.Log, e.Path, e.Offset)
}

// CorruptError reports segment bytes that are physically present but
// cannot be trusted. Offset is where the valid prefix ends.
type CorruptError struct {
	Log    string // the Spec's Name
	Path   string
	Offset int64
	Reason string
}

func (e *CorruptError) Error() string {
	return fmt.Sprintf("%s: corrupt segment %s at offset %d: %s", e.Log, e.Path, e.Offset, e.Reason)
}

// At places a classification error produced below the file level: verify
// functions report offsets relative to their frame and know no path, so
// whoever holds the frame's position adds it. Other errors pass through.
func (s *Spec) At(err error, path string, off int64) error {
	switch e := err.(type) {
	case *TornTailError:
		e.Log, e.Path, e.Offset = s.Name, path, e.Offset+off
	case *CorruptError:
		e.Log, e.Path, e.Offset = s.Name, path, e.Offset+off
	}
	return err
}

// Frame is what a verify function reports about one verified frame.
type Frame struct {
	// Size is the frame's encoded length in bytes.
	Size int
	// MinSeq and MaxSeq bound the sequence numbers inside the frame.
	MinSeq, MaxSeq uint64
	// Units counts the logical items the frame holds (1 for a WAL record,
	// the event count for a block).
	Units int
}

// Info summarizes the valid prefix of one walked segment image.
type Info struct {
	// FirstSeq is the header's first sequence number.
	FirstSeq uint64
	// LastSeq is the last valid frame's MaxSeq (0 when there is none).
	LastSeq uint64
	// Frames counts the valid frames; Units their items.
	Frames int
	Units  int64
	// Good is the byte length of the valid prefix: the header plus every
	// whole, verified frame. Truncating the file to Good removes a torn or
	// corrupt tail without touching trustworthy data.
	Good int64
}

// Walk is the single frame walk: it checks the header, then calls verify
// on the bytes from each frame start to the end of the image. verify
// returns the frame's extent plus whatever decoded view the codec wants
// handed to each, a *TornTailError when the image ends mid-frame, or a
// *CorruptError when the bytes present fail verification. Walk enforces
// the Spec's sequence discipline, then calls each (when non-nil) before
// counting the frame into Info — so an error from each, classification
// errors included, leaves the frame outside the valid prefix. Walk never
// panics on malformed input; returned classification errors carry the
// absolute offset and an empty Path.
func Walk[T any](s *Spec, data []byte, verify func([]byte) (Frame, T, error), each func(off int64, fr Frame, aux T) error) (Info, error) {
	return walkFrom(s, Info{}, data, verify, each)
}

// walkFrom is Walk continued: info is what an earlier walk of the same file
// returned and data the bytes past info.Good — the whole image, header
// included, when info.Good is 0. Offsets stay absolute and the sequence
// discipline carries across the resume.
func walkFrom[T any](s *Spec, info Info, data []byte, verify func([]byte) (Frame, T, error), each func(off int64, fr Frame, aux T) error) (Info, error) {
	base := info.Good
	if base == 0 {
		info = Info{}
		hs := s.HeaderSize()
		if len(data) < hs {
			n := min(len(data), len(s.Magic))
			if string(data[:n]) == s.Magic[:n] {
				// A prefix of a valid header: the crash hit before the header
				// finished. Nothing here is usable, but nothing is damaged.
				return info, &TornTailError{Log: s.Name}
			}
			return info, &CorruptError{Log: s.Name, Reason: "bad magic header"}
		}
		if string(data[:len(s.Magic)]) != s.Magic {
			return info, &CorruptError{Log: s.Name, Reason: "bad magic header"}
		}
		info.FirstSeq = binary.LittleEndian.Uint64(data[len(s.Magic):hs])
		if s.Strict && info.FirstSeq == 0 {
			return info, &CorruptError{Log: s.Name, Reason: "zero first sequence"}
		}
		if !s.Strict && int64(info.FirstSeq) < 0 {
			return info, &CorruptError{Log: s.Name, Reason: "negative first sequence"}
		}
		info.Good = int64(hs)
	}
	for off := info.Good; off-base < int64(len(data)); off = info.Good {
		fr, aux, err := verify(data[off-base:])
		if err == nil {
			err = s.checkOrder(info, fr)
		}
		if err == nil && each != nil {
			err = each(off, fr, aux)
		}
		if err != nil {
			return info, s.At(err, "", off)
		}
		info.LastSeq = fr.MaxSeq
		info.Frames++
		info.Units += int64(fr.Units)
		info.Good += int64(fr.Size)
	}
	return info, nil
}

// checkOrder applies the sequence discipline to the next frame.
func (s *Spec) checkOrder(info Info, fr Frame) error {
	switch {
	case s.Strict:
		prev := info.LastSeq
		if info.Frames == 0 {
			prev = info.FirstSeq - 1
		}
		if fr.MinSeq <= prev {
			return &CorruptError{Reason: fmt.Sprintf("non-increasing sequence %d after %d", fr.MinSeq, prev)}
		}
	case info.Frames == 0:
		if fr.MinSeq != info.FirstSeq {
			return &CorruptError{Reason: "first frame disagrees with header firstSeq"}
		}
	case int64(fr.MinSeq) < int64(info.LastSeq):
		return &CorruptError{Reason: fmt.Sprintf("frame minSeq %d below previous maxSeq %d", int64(fr.MinSeq), int64(info.LastSeq))}
	}
	return nil
}

// overlaps reports whether a file starting at first cannot follow a file
// ending at prevLast under the Spec's discipline.
func (s *Spec) overlaps(first, prevLast uint64) bool {
	if s.Strict {
		return first <= prevLast
	}
	return first < prevLast
}

// ScanInfo reports what a read-only Scan covered — and is the point a later
// Scan of the same directory resumes from.
type ScanInfo struct {
	// Paths lists the files read, the damaged one (if any) last.
	Paths []string
	// Frames and Units count the verified frames and their items; LastSeq
	// is the newest verified frame's MaxSeq.
	Frames  int
	Units   int64
	LastSeq uint64
	// Tail is the walk of the last file in Paths: Tail.Good is where its
	// verified prefix ends and a resumed Scan starts reading.
	Tail Info
	// Read counts the bytes this Scan read from disk.
	Read int64
}

// ErrNotExtension is returned by a resumed Scan when the directory no
// longer extends what the resume point covered — a listed file is gone,
// renamed or shorter than its verified prefix. A writer's Open or CutTail
// ran in between; the caller starts over with a cold Scan.
var ErrNotExtension = errors.New("seglog: segments do not extend the resume point")

// Scan is the read-only walk over a directory: every segment in sequence
// order, each verified frame handed to fn with its file's index in
// ScanInfo.Paths. Damage is never repaired — repair belongs to the
// writer's Open: the scan stops at the first torn tail or corrupt frame
// and returns that classification error (Path filled) with the counts of
// the verified prefix; nothing after damage is trustworthy. fn's own error
// stops the scan the same way.
//
// from is the zero value for a cold scan, or an earlier Scan's result to
// resume it: a log only grows between a writer's Opens, so only the bytes
// past from.Tail.Good of the last known file and any newer files are read,
// fn sees only their frames, and the returned counts cover both scans. A
// tail that was torn under a live writer is simply read again.
func Scan[T any](s *Spec, dir string, from ScanInfo, verify func([]byte) (Frame, T, error), fn func(seg int, off int64, fr Frame, aux T) error) (ScanInfo, error) {
	info := from
	info.Read = 0
	names, err := s.list(dir)
	if err != nil {
		return info, err
	}
	known := len(from.Paths)
	if len(names) < known || !slices.Equal(names[:known], from.Paths) {
		return info, ErrNotExtension
	}
	for i := max(known-1, 0); i < len(names); i++ {
		path := names[i]
		info.Paths = names[:i+1]
		var tail Info
		if i < known {
			tail = from.Tail
		}
		data, err := readFrom(path, tail.Good)
		if err != nil {
			return info, fmt.Errorf("%s: read segment: %w", s.Name, err)
		}
		info.Read += int64(len(data))
		si, err := walkFrom(s, tail, data, verify, func(off int64, fr Frame, aux T) error {
			return fn(i, off, fr, aux)
		})
		info.Frames += si.Frames - tail.Frames
		info.Units += si.Units - tail.Units
		if si.Frames > 0 {
			info.LastSeq = si.LastSeq
		}
		info.Tail = si
		if err != nil {
			return info, s.At(err, path, 0)
		}
	}
	return info, nil
}

// readFrom returns path's bytes from off to its end, or ErrNotExtension
// when the file ends before off.
func readFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size, err := f.Seek(0, io.SeekEnd)
	if err == nil && size < off {
		err = ErrNotExtension
	}
	if err != nil {
		return nil, err
	}
	data := make([]byte, size-off)
	_, err = f.ReadAt(data, off)
	return data, err
}

// SyncDir fsyncs a directory, making the creations, renames and deletions
// inside it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
