package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"logparse/internal/seglog"
)

// appendN appends records start..end (inclusive) with deterministic
// payloads and commits once — one "admission batch".
func appendN(t *testing.T, w *WAL, start, end uint64) {
	t.Helper()
	for seq := start; seq <= end; seq++ {
		if err := w.Append(seq, []byte(fmt.Sprintf("line-%04d payload", seq))); err != nil {
			t.Fatalf("Append(%d): %v", seq, err)
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
}

// replayAll collects every (seq, payload) pair.
func replayAll(t *testing.T, w *WAL) (seqs []uint64, payloads []string) {
	t.Helper()
	n, err := w.Replay(func(seq uint64, payload []byte, _ bool) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if int(n) != len(seqs) {
		t.Fatalf("Replay count %d, callback saw %d", n, len(seqs))
	}
	return seqs, payloads
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, info, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if info.Segments != 0 || info.LastSeq != 0 {
		t.Fatalf("fresh OpenInfo = %+v", info)
	}
	appendN(t, w, 1, 50)
	if got := w.LastSeq(); got != 50 {
		t.Fatalf("LastSeq = %d, want 50", got)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	w2, info2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	if info2.Units != 50 || info2.LastSeq != 50 || info2.TornTails != 0 || info2.CorruptDropped != 0 {
		t.Fatalf("reopen OpenInfo = %+v", info2)
	}
	seqs, payloads := replayAll(t, w2)
	if len(seqs) != 50 {
		t.Fatalf("replayed %d records, want 50", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seq[%d] = %d", i, seq)
		}
		if want := fmt.Sprintf("line-%04d payload", seq); payloads[i] != want {
			t.Fatalf("payload[%d] = %q, want %q", i, payloads[i], want)
		}
	}
}

func TestReopenContinuesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 1, 10)
	w.Close()

	w2, info2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	// The reopened tail segment counts the same in OpenInfo and Segments().
	if info2.Segments != 1 || w2.Segments() != 1 {
		t.Fatalf("after reopen: OpenInfo.Segments=%d Segments()=%d, want 1 each", info2.Segments, w2.Segments())
	}
	appendN(t, w2, 11, 20)
	w2.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 1 {
		t.Fatalf("restart split the log into %d segments, want 1", len(files))
	}
	w3, info, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer w3.Close()
	if info.Units != 20 || info.LastSeq != 20 {
		t.Fatalf("OpenInfo = %+v, want 20 records through seq 20", info)
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendN(t, w, 1, 10)
	w.Close()

	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) != 1 {
		t.Fatalf("want 1 segment, got %d", len(files))
	}
	// Simulate a crash mid-append: a whole record plus a prefix of the next.
	whole := AppendRecord(nil, 11, []byte("committed just before the crash"))
	torn := AppendRecord(nil, 12, []byte("this record was cut short"))
	f, err := os.OpenFile(files[0], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write(whole)
	f.Write(torn[:len(torn)-7])
	f.Close()

	w2, info, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	defer w2.Close()
	if info.TornTails != 1 {
		t.Fatalf("TornTails = %d, want 1", info.TornTails)
	}
	if info.Units != 11 || info.LastSeq != 11 {
		t.Fatalf("OpenInfo = %+v, want 11 records through seq 11", info)
	}
	seqs, _ := replayAll(t, w2)
	if len(seqs) != 11 || seqs[10] != 11 {
		t.Fatalf("replay after torn-tail repair: %v", seqs)
	}
	// The repair is idempotent: a third open sees a clean log.
	w2.Close()
	_, info3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if info3.TornTails != 0 || info3.Units != 11 {
		t.Fatalf("second repair pass: %+v", info3)
	}
}

func TestCorruptBodyDiscardsTail(t *testing.T) {
	dir := t.TempDir()
	// Two segments: corrupt a record in the first, assert the second is
	// dropped — ordering beyond damage cannot be trusted.
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for seq := uint64(1); seq <= 40; seq++ {
		if err := w.Append(seq, []byte(fmt.Sprintf("line-%04d payload", seq))); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	files, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(files) < 2 {
		t.Fatalf("want ≥ 2 segments, got %d", len(files))
	}

	// Flip one payload byte in the middle of the first segment.
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	mid := segHeaderSize + (len(data)-segHeaderSize)/2
	data[mid] ^= 0xFF
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, info, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen over corruption: %v", err)
	}
	defer w2.Close()
	if info.CorruptDropped == 0 {
		t.Fatalf("CorruptDropped = 0, want > 0: %+v", info)
	}
	seqs, _ := replayAll(t, w2)
	if len(seqs) == 0 {
		t.Fatalf("the verified prefix before the corruption must survive")
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("surviving records are not the contiguous prefix: %v", seqs)
		}
	}
	if info.LastSeq >= 40 {
		t.Fatalf("records beyond the corruption must not survive: LastSeq = %d", info.LastSeq)
	}
	remaining, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(remaining) >= len(files) {
		t.Fatalf("segments after the corruption point must be dropped: %d → %d files", len(files), len(remaining))
	}
}

func TestRotationAndTruncateThrough(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, SegmentBytes: 512})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer w.Close()
	for seq := uint64(1); seq <= 100; seq++ {
		if err := w.Append(seq, []byte(fmt.Sprintf("line-%04d payload", seq))); err != nil {
			t.Fatal(err)
		}
		if seq%10 == 0 {
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	before := w.Segments()
	if before < 3 {
		t.Fatalf("want ≥ 3 segments from rotation, got %d", before)
	}
	seqs, _ := replayAll(t, w)
	if len(seqs) != 100 || seqs[99] != 100 {
		t.Fatalf("replay across segments: %d records, last %d", len(seqs), seqs[len(seqs)-1])
	}

	if err := w.TruncateThrough(50); err != nil {
		t.Fatalf("TruncateThrough: %v", err)
	}
	after := w.Segments()
	if after >= before {
		t.Fatalf("truncation deleted nothing: %d → %d segments", before, after)
	}
	// Records above 50 must all survive truncation.
	seqs, _ = replayAll(t, w)
	for _, seq := range seqs {
		if seq > 50 {
			return
		}
	}
	t.Fatalf("no record above the truncation point survived: %v", seqs)
}

func TestTruncateNeverDeletesActiveSegment(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 1, 5)
	if err := w.TruncateThrough(5); err != nil {
		t.Fatal(err)
	}
	if w.Segments() != 1 {
		t.Fatalf("active segment deleted by truncation")
	}
	// And it still appends.
	appendN(t, w, 6, 10)
	if w.LastSeq() != 10 {
		t.Fatalf("LastSeq = %d after post-truncation appends", w.LastSeq())
	}
}

func TestAppendSeqMustIncrease(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.Append(5, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, []byte("y")); err == nil {
		t.Fatalf("repeated seq must be rejected")
	}
	// The failure latches: the file position is untrustworthy.
	if err := w.Append(6, []byte("z")); err == nil {
		t.Fatalf("appends after a latched failure must fail")
	}
}

func TestHookAbortsRotation(t *testing.T) {
	dir := t.TempDir()
	hookErr := errors.New("injected rotate crash")
	w, _, err := Open(Options{
		Dir: dir, SegmentBytes: 64,
		Seam: seglog.Seam{Hook: func(point string) error {
			if point == "rotate" {
				return hookErr
			}
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(1, []byte("a line long enough to cross the tiny segment threshold")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); !errors.Is(err, hookErr) {
		t.Fatalf("Commit over a rotate crash = %v, want the hook error", err)
	}
	w.Close()
	// The sealed records survive the mid-rotation crash.
	w2, info, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Units != 1 || info.LastSeq != 1 {
		t.Fatalf("recovery after mid-rotation crash: %+v", info)
	}
}

func TestHookAbortsTruncationMidway(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	hookErr := errors.New("injected truncate crash")
	w, _, err := Open(Options{
		Dir: dir, SegmentBytes: 256,
		Seam: seglog.Seam{Hook: func(point string) error {
			if point != "truncate" {
				return nil
			}
			calls++
			if calls == 2 {
				return hookErr
			}
			return nil
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 60; seq++ {
		if err := w.Append(seq, []byte(fmt.Sprintf("line-%04d payload", seq))); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 3 {
		t.Fatalf("want ≥ 3 segments, got %d", w.Segments())
	}
	if err := w.TruncateThrough(60); !errors.Is(err, hookErr) {
		t.Fatalf("TruncateThrough over a crash = %v, want the hook error", err)
	}
	w.Close()
	// Recovery over the half-truncated log: remaining records are intact
	// and ordered.
	w2, _, err := Open(Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatalf("reopen after mid-truncation crash: %v", err)
	}
	defer w2.Close()
	seqs, _ := replayAll(t, w2)
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("replay order broken after mid-truncation crash: %v", seqs)
		}
	}
	if len(seqs) == 0 || seqs[len(seqs)-1] != 60 {
		t.Fatalf("newest records lost to a truncation crash: %v", seqs)
	}
}

func TestDecodeSegmentClassification(t *testing.T) {
	valid := SegmentHeader(1)
	valid = AppendRecord(valid, 1, []byte("first"))
	valid = AppendRecord(valid, 2, []byte("second"))

	t.Run("clean", func(t *testing.T) {
		info, err := DecodeSegment("", valid, nil)
		if err != nil || info.Units != 2 || info.LastSeq != 2 {
			t.Fatalf("info=%+v err=%v", info, err)
		}
	})
	t.Run("torn header", func(t *testing.T) {
		_, err := DecodeSegment("", valid[:5], nil)
		var torn *seglog.TornTailError
		if !errors.As(err, &torn) {
			t.Fatalf("prefix of a valid header must classify as torn tail, got %v", err)
		}
	})
	t.Run("torn record", func(t *testing.T) {
		info, err := DecodeSegment("", valid[:len(valid)-3], nil)
		var torn *seglog.TornTailError
		if !errors.As(err, &torn) {
			t.Fatalf("cut-short record must classify as torn tail, got %v", err)
		}
		if info.Units != 1 {
			t.Fatalf("valid prefix before the tear must decode: %+v", info)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte("not a wal segment at all........"), valid...)
		_, err := DecodeSegment("", bad, nil)
		var corrupt *seglog.CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("bad magic must classify as corrupt, got %v", err)
		}
	})
	t.Run("flipped crc", func(t *testing.T) {
		flipped := append([]byte(nil), valid...)
		flipped[len(flipped)-1] ^= 0x01
		info, err := DecodeSegment("", flipped, nil)
		var corrupt *seglog.CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("crc mismatch must classify as corrupt, got %v", err)
		}
		if info.Units != 1 {
			t.Fatalf("prefix before the flip must decode: %+v", info)
		}
	})
	t.Run("zero-length record", func(t *testing.T) {
		img := SegmentHeader(7)
		img = AppendRecord(img, 7, nil)
		info, err := DecodeSegment("", img, nil)
		if err != nil || info.Units != 1 || info.LastSeq != 7 {
			t.Fatalf("zero-length record: info=%+v err=%v", info, err)
		}
	})
	t.Run("non-increasing seq", func(t *testing.T) {
		img := SegmentHeader(3)
		img = AppendRecord(img, 3, []byte("a"))
		img = AppendRecord(img, 3, []byte("b"))
		_, err := DecodeSegment("", img, nil)
		var corrupt *seglog.CorruptError
		if !errors.As(err, &corrupt) {
			t.Fatalf("repeated seq must classify as corrupt, got %v", err)
		}
	})
}

func TestSyncNonePolicy(t *testing.T) {
	dir := t.TempDir()
	w, _, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 1, 20)
	w.Close()
	w2, info, err := Open(Options{Dir: dir, Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if info.Units != 20 {
		t.Fatalf("SyncNone commit lost records within the process: %+v", info)
	}
}
