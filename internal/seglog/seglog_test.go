package seglog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The test codec: a trivial length-prefixed frame with a one-byte sum.
//
//	length (4 bytes LE) | seq (8 bytes LE) | payload | sum (1 byte over the rest)
var testSpec = Spec{Name: "seglogtest", Prefix: "t", Magic: "seglog-test v1\n", Strict: true}

const (
	testFrameOverhead = 13
	testMaxPayload    = 1 << 12
)

func sum8(b []byte) (s byte) {
	for _, c := range b {
		s = s*31 + c
	}
	return s
}

func testFrame(seq uint64, payload string) []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
	b = binary.LittleEndian.AppendUint64(b, seq)
	b = append(b, payload...)
	return append(b, sum8(b))
}

func verifyTestFrame(data []byte) (Frame, string, error) {
	if len(data) < testFrameOverhead {
		return Frame{}, "", &TornTailError{}
	}
	n := binary.LittleEndian.Uint32(data)
	if n > testMaxPayload {
		return Frame{}, "", &CorruptError{Reason: "implausible length"}
	}
	size := testFrameOverhead + int(n)
	if len(data) < size {
		return Frame{}, "", &TornTailError{}
	}
	if sum8(data[:size-1]) != data[size-1] {
		return Frame{}, "", &CorruptError{Reason: "sum mismatch"}
	}
	seq := binary.LittleEndian.Uint64(data[4:])
	return Frame{Size: size, MinSeq: seq, MaxSeq: seq, Units: 1}, string(data[12 : size-1]), nil
}

// testImage builds a segment image holding frames first..last.
func testImage(first, last uint64) []byte {
	img := testSpec.Header(first)
	for seq := first; seq <= last; seq++ {
		img = append(img, testFrame(seq, fmt.Sprintf("payload-%d", seq))...)
	}
	return img
}

func testPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("t-%020d.seg", first))
}

// survivors lists dir's segment files as name → size.
func survivors(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	names, err := testSpec.list(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]int64{}
	for _, p := range names {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = st.Size()
	}
	return out
}

// TestOpenRecovery drives the one open-scan-repair routine through every
// damage class, asserting what it reports and what it leaves on disk.
func TestOpenRecovery(t *testing.T) {
	a, b, c := testImage(1, 5), testImage(6, 9), testImage(10, 12)
	flipped := func(img []byte, at int) []byte {
		out := append([]byte(nil), img...)
		out[at] ^= 0x55
		return out
	}
	name := func(first uint64) string { return filepath.Base(testPath("", first)) }
	hs := testSpec.HeaderSize()
	frame := len(testFrame(1, "payload-1")) // seqs 1..9 encode to equal-size frames

	cases := []struct {
		name  string
		files map[uint64][]byte // by the firstSeq in the file name
		want  OpenInfo
		left  map[string]int64
	}{
		{
			name:  "clean",
			files: map[uint64][]byte{1: a, 6: b, 10: c},
			want:  OpenInfo{Segments: 3, Frames: 12, Units: 12, LastSeq: 12},
			left:  map[string]int64{name(1): int64(len(a)), name(6): int64(len(b)), name(10): int64(len(c))},
		},
		{
			name:  "torn header",
			files: map[uint64][]byte{1: a, 6: b[:7]},
			want:  OpenInfo{Segments: 1, Frames: 5, Units: 5, LastSeq: 5, TornTails: 1, TornBytes: 7},
			left:  map[string]int64{name(1): int64(len(a))},
		},
		{
			name:  "torn frame in last file",
			files: map[uint64][]byte{1: a, 6: b[:len(b)-4]},
			want:  OpenInfo{Segments: 2, Frames: 8, Units: 8, LastSeq: 8, TornTails: 1, TornBytes: int64(frame - 4)},
			left:  map[string]int64{name(1): int64(len(a)), name(6): int64(len(b) - frame)},
		},
		{
			// Writes went on into later files past the damage: those
			// files cannot be trusted.
			name:  "torn frame in a non-last file",
			files: map[uint64][]byte{1: a[:len(a)-4], 6: b, 10: c},
			want:  OpenInfo{Segments: 1, Frames: 4, Units: 4, LastSeq: 4, TornTails: 1, TornBytes: int64(frame - 4), CorruptDropped: 2},
			left:  map[string]int64{name(1): int64(len(a) - frame)},
		},
		{
			name:  "corrupt frame",
			files: map[uint64][]byte{1: a, 6: flipped(b, hs+frame+14), 10: c},
			want:  OpenInfo{Segments: 2, Frames: 6, Units: 6, LastSeq: 6, CorruptDropped: 2},
			left:  map[string]int64{name(1): int64(len(a)), name(6): int64(hs + frame)},
		},
		{
			name:  "corrupt first frame leaves nothing of the file",
			files: map[uint64][]byte{1: a, 6: flipped(b, hs+14)},
			want:  OpenInfo{Segments: 1, Frames: 5, Units: 5, LastSeq: 5, CorruptDropped: 1},
			left:  map[string]int64{name(1): int64(len(a))},
		},
		{
			name:  "overlapping files",
			files: map[uint64][]byte{1: a, 5: testImage(5, 8), 10: c},
			want:  OpenInfo{Segments: 1, Frames: 5, Units: 5, LastSeq: 5, CorruptDropped: 2},
			left:  map[string]int64{name(1): int64(len(a))},
		},
		{
			// A crash between creating a segment and its first durable
			// frame: not damage, just an empty file to recreate lazily.
			name:  "header-only file",
			files: map[uint64][]byte{1: a, 6: testSpec.Header(6)},
			want:  OpenInfo{Segments: 1, Frames: 5, Units: 5, LastSeq: 5},
			left:  map[string]int64{name(1): int64(len(a))},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			for first, img := range tc.files {
				if err := os.WriteFile(testPath(dir, first), img, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			var seen []uint64
			l, info, err := Open(&testSpec, Options{Dir: dir, SegmentBytes: 1 << 20}, verifyTestFrame,
				func(seg int, _ int64, fr Frame, payload string) {
					if want := fmt.Sprintf("payload-%d", fr.MinSeq); payload != want {
						t.Errorf("frame %d decoded to %q, want %q", fr.MinSeq, payload, want)
					}
					seen = append(seen, fr.MinSeq)
				})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			if info != tc.want {
				t.Fatalf("OpenInfo = %+v, want %+v", info, tc.want)
			}
			if got := survivors(t, dir); !reflect.DeepEqual(got, tc.left) {
				t.Fatalf("files left = %v, want %v", got, tc.left)
			}
			if len(seen) != info.Frames {
				t.Fatalf("each saw %d frames, OpenInfo counts %d", len(seen), info.Frames)
			}
			for i, seq := range seen {
				if seq != uint64(i+1) {
					t.Fatalf("surviving frames are not the contiguous prefix: %v", seen)
				}
			}
			if len(l.Segments()) != info.Segments {
				t.Fatalf("Segments() has %d entries, OpenInfo.Segments = %d", len(l.Segments()), info.Segments)
			}
			// Repair is idempotent.
			_, again, err := Open(&testSpec, Options{Dir: dir, SegmentBytes: 1 << 20}, verifyTestFrame, nil)
			if err != nil {
				t.Fatalf("second Open: %v", err)
			}
			tc.want.TornTails, tc.want.TornBytes, tc.want.CorruptDropped = 0, 0, 0
			if again != tc.want {
				t.Fatalf("second OpenInfo = %+v, want %+v", again, tc.want)
			}
		})
	}
}

// TestEnsureReopensTailWithRoom pins the restart behaviour: the newest
// segment is continued while it is below SegmentBytes, and only a full one
// gets a successor.
func TestEnsureReopensTailWithRoom(t *testing.T) {
	img := testImage(1, 5)
	for _, tc := range []struct {
		name         string
		segmentBytes int64
		wantCreated  bool
		wantFiles    int
	}{
		{"room", int64(len(img)) + 1, false, 1},
		{"full", int64(len(img)), true, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(testPath(dir, 1), img, 0o644); err != nil {
				t.Fatal(err)
			}
			l, _, err := Open(&testSpec, Options{Dir: dir, SegmentBytes: tc.segmentBytes}, verifyTestFrame, nil)
			if err != nil {
				t.Fatal(err)
			}
			created, err := l.Ensure(6)
			if err != nil || created != tc.wantCreated {
				t.Fatalf("Ensure = (%v, %v), want created=%v", created, err, tc.wantCreated)
			}
			if _, err := l.Write(testFrame(6, "payload-6")); err != nil {
				t.Fatal(err)
			}
			if err := l.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
			_, info, err := Open(&testSpec, Options{Dir: dir, SegmentBytes: tc.segmentBytes}, verifyTestFrame, nil)
			if err != nil {
				t.Fatal(err)
			}
			if info.Segments != tc.wantFiles || info.Frames != 6 || info.LastSeq != 6 || info.TornTails+info.CorruptDropped != 0 {
				t.Fatalf("after append: %+v, want %d files holding 6 clean frames", info, tc.wantFiles)
			}
		})
	}
}

// FuzzSeglogOpen throws arbitrary bytes, split into one to three segment
// files, at the repair routine. Whatever the bytes: Open never panics, a
// second Open finds nothing left to repair, and what survives is a prefix
// of the files — each a prefix of its original bytes — with sequence
// numbers in order across them.
func FuzzSeglogOpen(f *testing.F) {
	// The damage classes live in the committed corpus under
	// testdata/fuzz/FuzzSeglogOpen; these add the shapeless inputs.
	a := testImage(1, 3)
	f.Add(append(testImage(1, 3), testImage(4, 6)...), uint16(len(a)), uint16(0))
	f.Add(append(testImage(1, 3), 0xff, 0xff, 0xff, 0xff), uint16(0), uint16(0)) // implausible length
	f.Add([]byte("not a segment at all, just bytes"), uint16(5), uint16(9))
	f.Add([]byte{}, uint16(0), uint16(0))

	f.Fuzz(func(t *testing.T, data []byte, cut1, cut2 uint16) {
		dir := t.TempDir()
		lo, hi := min(int(cut1), len(data)), min(int(cut2), len(data))
		if lo > hi {
			lo, hi = hi, lo
		}
		orig := map[string][]byte{}
		for i, chunk := range [][]byte{data[:lo], data[lo:hi], data[hi:]} {
			if len(chunk) == 0 {
				continue
			}
			p := testPath(dir, uint64(i+1))
			orig[p] = chunk
			if err := os.WriteFile(p, chunk, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		opts := Options{Dir: dir, SegmentBytes: 1 << 20}
		l, info, err := Open(&testSpec, opts, verifyTestFrame, nil)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		names, _ := testSpec.list(dir)
		segs := l.Segments()
		if len(segs) != len(names) || len(segs) != info.Segments {
			t.Fatalf("%d files on disk, %d segments, OpenInfo.Segments=%d", len(names), len(segs), info.Segments)
		}
		for i, sg := range segs {
			if sg.Path != names[i] {
				t.Fatalf("segment %d is %s, file %d on disk is %s", i, sg.Path, i, names[i])
			}
			got, err := os.ReadFile(sg.Path)
			if err != nil {
				t.Fatal(err)
			}
			if int64(len(got)) != sg.Size || len(got) > len(orig[sg.Path]) || string(got) != string(orig[sg.Path][:len(got)]) {
				t.Fatalf("survivor %s is not a prefix of its original bytes", sg.Path)
			}
			if sg.FirstSeq > sg.LastSeq || (i > 0 && sg.FirstSeq <= segs[i-1].LastSeq) {
				t.Fatalf("segment seq ranges out of order: %+v", segs)
			}
		}
		_, again, err := Open(&testSpec, opts, verifyTestFrame, nil)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		info.TornTails, info.TornBytes, info.CorruptDropped = 0, 0, 0
		if again != info {
			t.Fatalf("second Open = %+v, want the repaired state %+v", again, info)
		}
	})
}

// TestScanResume grows a strict log byte by byte and file by file and holds a
// resumed Scan equal to a cold one at every step: same ScanInfo (but for the
// bytes read), same error class, every frame seen exactly once — with the
// sequence discipline applied across the resume, and a cut-back directory
// refused.
func TestScanResume(t *testing.T) {
	dir := t.TempDir()
	scan := func(from ScanInfo) (ScanInfo, []string, error) {
		var seen []string
		info, err := Scan(&testSpec, dir, from, verifyTestFrame, func(seg int, off int64, fr Frame, payload string) error {
			seen = append(seen, fmt.Sprintf("%d@%d:%s", seg, off, payload))
			return nil
		})
		return info, seen, err
	}
	var kept ScanInfo
	var keptSeen []string
	step := func(what string) {
		t.Helper()
		before := kept
		var fresh []string
		var err error
		kept, fresh, err = scan(kept)
		keptSeen = append(keptSeen, fresh...)
		cold, coldSeen, coldErr := scan(ScanInfo{})
		if reflect.TypeOf(err) != reflect.TypeOf(coldErr) || fmt.Sprint(err) != fmt.Sprint(coldErr) {
			t.Fatalf("%s: resumed scan ended with %v, cold with %v", what, err, coldErr)
		}
		if kept.Read > cold.Read-before.Tail.Good && len(before.Paths) > 0 {
			t.Fatalf("%s: resumed scan read %d bytes of %d with %d already verified in its last file", what, kept.Read, cold.Read, before.Tail.Good)
		}
		kept.Read, cold.Read = 0, 0
		if !reflect.DeepEqual(kept, cold) || !reflect.DeepEqual(keptSeen, coldSeen) {
			t.Fatalf("%s: resumed scan %+v saw %v; cold %+v saw %v", what, kept, keptSeen, cold, coldSeen)
		}
	}
	write := func(first uint64, img []byte) {
		t.Helper()
		if err := os.WriteFile(testPath(dir, first), img, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	a, b := testImage(1, 5), testImage(6, 9)
	hs := testSpec.HeaderSize()
	step("empty directory")
	write(1, a[:hs-3])
	step("torn header")
	write(1, a[:hs])
	step("header only")
	write(1, a[:hs+20])
	step("torn first frame")
	write(1, a[:len(a)-7])
	step("four frames and a torn fifth")
	write(1, a)
	step("first file complete")
	step("idle")
	if kept.Read != 0 {
		t.Fatalf("an idle resume read %d bytes", kept.Read)
	}
	write(6, b[:hs+5])
	step("second file, torn")
	write(6, b)
	step("second file complete")

	// Sequence order is checked against the frame before the resume point.
	write(6, append(append([]byte(nil), b...), testFrame(9, "again")...))
	step("non-increasing sequence after the resume")
	if _, _, err := scan(kept); reflect.TypeOf(err) != reflect.TypeOf(&CorruptError{}) {
		t.Fatalf("a repeated sequence number past the resume point gave %v, want *CorruptError", err)
	}

	// What a writer's repair does: the file shrinks below the verified prefix,
	// or goes away. Neither is an extension.
	write(6, b[:hs+5])
	if _, _, err := scan(kept); !errors.Is(err, ErrNotExtension) {
		t.Fatalf("resume over a truncated file: %v, want ErrNotExtension", err)
	}
	os.Remove(testPath(dir, 6))
	if _, _, err := scan(kept); !errors.Is(err, ErrNotExtension) {
		t.Fatalf("resume over a removed file: %v, want ErrNotExtension", err)
	}
}
