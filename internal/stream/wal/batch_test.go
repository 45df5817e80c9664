package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"logparse/internal/seglog"
)

// batchOf returns n lines back to back, line over of them 5,000 bytes long
// and marked oversized, so the table holds one- and two-byte lengths.
func batchOf(n, over int) ([]byte, []Line) {
	var data []byte
	lines := make([]Line, n)
	for i := range lines {
		if i == over {
			data = append(data, strings.Repeat("z", 5000)...)
		} else {
			data = append(data, fmt.Sprintf("line %d %s", i, strings.Repeat("x", i%70))...)
		}
		lines[i] = Line{End: len(data), Oversized: i == over}
	}
	return data, lines
}

// checkLines checks what a replay or decode saw against the batch written.
func checkLines(t *testing.T, seq uint64, data []byte, lines []Line, gotSeqs []uint64, gotLines []string, gotOver []bool) {
	t.Helper()
	if len(gotSeqs) != len(lines) {
		t.Fatalf("%d lines, want %d", len(gotSeqs), len(lines))
	}
	start := 0
	for i, l := range lines {
		if gotSeqs[i] != seq+uint64(i) || gotLines[i] != string(data[start:l.End]) || gotOver[i] != l.Oversized {
			t.Fatalf("line %d: seq %d %q oversized %v, want seq %d %q oversized %v",
				i, gotSeqs[i], gotLines[i], gotOver[i], seq+uint64(i), data[start:l.End], l.Oversized)
		}
		start = l.End
	}
}

// TestBatchRecordRoundTrip writes one batch record of 1, 63 and 64 lines,
// one of them over-long, through AppendBatch and reads it back through
// Open, Replay and DecodeSegment: every line with its seq and its mark,
// and the file holds exactly AppendBatchRecord's bytes.
func TestBatchRecordRoundTrip(t *testing.T) {
	for _, n := range []int{1, 63, 64} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			data, lines := batchOf(n, n/2)
			dir := t.TempDir()
			w, _, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.AppendBatch(10, data, lines); err != nil {
				t.Fatal(err)
			}
			if err := w.Commit(); err != nil {
				t.Fatal(err)
			}
			if got := w.LastSeq(); got != uint64(9+n) {
				t.Fatalf("LastSeq %d, want %d", got, 9+n)
			}
			w.Close()

			w, info, err := Open(Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			if info.Units != int64(n) || info.LastSeq != uint64(9+n) {
				t.Fatalf("OpenInfo %+v, want %d lines through %d", info, n, 9+n)
			}
			var seqs []uint64
			var got []string
			var over []bool
			collect := func(seq uint64, line []byte, oversized bool) error {
				seqs, got, over = append(seqs, seq), append(got, string(line)), append(over, oversized)
				return nil
			}
			if _, err := w.Replay(collect); err != nil {
				t.Fatal(err)
			}
			checkLines(t, 10, data, lines, seqs, got, over)

			img, err := os.ReadFile(filepath.Join(dir, "wal-00000000000000000010.seg"))
			if err != nil {
				t.Fatal(err)
			}
			if want := AppendBatchRecord(SegmentHeader(10), 10, data, lines); !bytes.Equal(img, want) {
				t.Fatal("segment bytes differ from AppendBatchRecord's")
			}
			seqs, got, over = nil, nil, nil
			if di, err := DecodeSegment("", img, collect); err != nil || di.Units != int64(n) {
				t.Fatalf("DecodeSegment: %+v, %v", di, err)
			}
			checkLines(t, 10, data, lines, seqs, got, over)
		})
	}
}

// TestBatchRecordTornAtEveryOffset cuts a segment at every byte inside its
// batch record: each cut reads as a torn tail at the record's start, with
// the one-line record before it intact.
func TestBatchRecordTornAtEveryOffset(t *testing.T) {
	data, lines := batchOf(64, 3)
	img := AppendRecord(SegmentHeader(1), 1, []byte("one-line record"))
	start := len(img)
	img = AppendBatchRecord(img, 2, data, lines)
	for cut := start + 1; cut < len(img); cut++ {
		info, err := DecodeSegment("", img[:cut], nil)
		var torn *seglog.TornTailError
		if !errors.As(err, &torn) || torn.Offset != int64(start) || info.Units != 1 {
			t.Fatalf("cut at %d: info %+v, err %v; want a torn tail at %d after 1 line", cut, info, err, start)
		}
	}
	if info, err := DecodeSegment("", img, nil); err != nil || info.Units != 65 || info.LastSeq != 65 {
		t.Fatalf("whole image: %+v, %v", info, err)
	}
}

// TestBatchRecordCorrupt: a flipped byte anywhere in a batch record, and a
// line table that covers less or more than the record's body, never decode;
// outside the length word each is a *seglog.CorruptError.
func TestBatchRecordCorrupt(t *testing.T) {
	data, lines := batchOf(8, 2)
	head := AppendRecord(SegmentHeader(1), 1, []byte("one-line record"))
	start := len(head)
	img := AppendBatchRecord(append([]byte(nil), head...), 2, data, lines)
	decode := func(img []byte) (seglog.Info, error) {
		return DecodeSegment("", img, func(uint64, []byte, bool) error { return nil })
	}
	for i := start; i < len(img); i++ {
		flipped := append([]byte(nil), img...)
		flipped[i] ^= 0x10
		info, err := decode(flipped)
		var corrupt *seglog.CorruptError
		switch {
		case err == nil || info.Units != 1:
			t.Fatalf("byte %d flipped: %+v, %v; want the record refused", i, info, err)
		case (i < start+4 || i >= start+8) && !errors.As(err, &corrupt):
			t.Fatalf("byte %d flipped: %v, want a *seglog.CorruptError", i, err)
		}
	}

	short := append([]Line(nil), lines...)
	short[len(short)-1].End--
	long := append([]Line(nil), lines...)
	long[len(long)-1].End++
	for name, bad := range map[string][]byte{
		"table covers too little": AppendBatchRecord(append([]byte(nil), head...), 2, data, short),
		"table covers too much":   AppendBatchRecord(append([]byte(nil), head...), 2, data, long),
		"no lines":                AppendBatchRecord(append([]byte(nil), head...), 2, nil, nil),
	} {
		info, err := decode(bad)
		var corrupt *seglog.CorruptError
		if !errors.As(err, &corrupt) || corrupt.Offset != int64(start) || info.Units != 1 {
			t.Fatalf("%s: %+v, %v; want a *seglog.CorruptError at %d", name, info, err, start)
		}
	}

	w, _, err := Open(Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := w.AppendBatch(1, data, short); err == nil {
		t.Fatal("AppendBatch took lines that do not end at the data's end")
	}
}

// TestTruncateKeepsStraddlingSegment: a sealed segment whose last record
// holds lines on both sides of the truncation point survives it.
func TestTruncateKeepsStraddlingSegment(t *testing.T) {
	w, _, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 1}) // every commit seals its segment
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	data, lines := batchOf(10, -1)
	for seq := uint64(1); seq <= 21; seq += 10 {
		if err := w.AppendBatch(seq, data, lines); err != nil {
			t.Fatal(err)
		}
		if err := w.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	first := func() uint64 {
		var seqs []uint64
		if _, err := w.Replay(func(seq uint64, _ []byte, _ bool) error { seqs = append(seqs, seq); return nil }); err != nil {
			t.Fatal(err)
		}
		return seqs[0]
	}
	for _, tc := range []struct {
		through, segments, first uint64
	}{{9, 3, 1}, {15, 2, 11}, {20, 1, 21}} {
		if err := w.TruncateThrough(tc.through); err != nil {
			t.Fatal(err)
		}
		if got, f := w.Segments(), first(); got != int(tc.segments) || f != tc.first {
			t.Fatalf("through %d: %d segments from line %d, want %d from %d", tc.through, got, f, tc.segments, tc.first)
		}
	}
}

// TestMaxLineBytesFitsOneRecord: a line of MaxLineBytes, marked oversized
// and numbered with the widest seq, makes a record within MaxRecordBytes.
func TestMaxLineBytesFitsOneRecord(t *testing.T) {
	data := make([]byte, MaxLineBytes)
	head := appendBatchHead(nil, 1<<63, data, []Line{{End: len(data), Oversized: true}})
	if size := len(head) - recHeaderSize + len(data); size > MaxRecordBytes {
		t.Fatalf("a MaxLineBytes line makes a %d-byte record, over MaxRecordBytes %d", size, MaxRecordBytes)
	}
}
