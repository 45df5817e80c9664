package seglog_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"logparse/internal/eventstore"
	"logparse/internal/seglog"
	"logparse/internal/stream/wal"
)

// layer drives one of the two real codecs built on seglog through the
// same script: write n units across several segments, open and report
// what recovery repaired, and commit one more unit.
type layer struct {
	name  string
	glob  string
	write func(t *testing.T, dir string, n int, seam seglog.Seam)
	// open returns what the layer's Open repaired and a closer.
	open func(t *testing.T, dir string, seam seglog.Seam) (seglog.OpenInfo, func() error)
	// commitOne opens dir with seam, appends one unit and commits it.
	commitOne func(dir string, seam seglog.Seam, seq int) error
}

var layers = []layer{
	{
		name: "wal", glob: "wal-*.seg",
		write: func(t *testing.T, dir string, n int, seam seglog.Seam) {
			w, _, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 512, Seam: seam})
			if err != nil {
				t.Fatal(err)
			}
			for seq := 1; seq <= n; seq++ {
				if err := w.Append(uint64(seq), []byte(fmt.Sprintf("line-%04d payload", seq))); err != nil {
					t.Fatal(err)
				}
				if seq%5 == 0 {
					if err := w.Commit(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		},
		open: func(t *testing.T, dir string, seam seglog.Seam) (seglog.OpenInfo, func() error) {
			w, info, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 512, Seam: seam})
			if err != nil {
				t.Fatalf("wal.Open: %v", err)
			}
			return info, w.Close
		},
		commitOne: func(dir string, seam seglog.Seam, seq int) error {
			w, _, err := wal.Open(wal.Options{Dir: dir, SegmentBytes: 512, Seam: seam})
			if err != nil {
				return err
			}
			defer w.Close()
			if err := w.Append(uint64(seq), []byte("one more line")); err != nil {
				return err
			}
			return w.Commit()
		},
	},
	{
		name: "eventstore", glob: "evt-*.seg",
		write: func(t *testing.T, dir string, n int, seam seglog.Seam) {
			s, _, err := eventstore.Open(eventstore.Options{Dir: dir, BlockBytes: 16, SegmentBytes: 256, Seam: seam})
			if err != nil {
				t.Fatal(err)
			}
			for seq := 1; seq <= n; seq++ {
				if err := s.Append(eventstore.Event{Seq: int64(seq), Time: int64(seq) * 1e9, Template: int32(seq % 3)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		},
		open: func(t *testing.T, dir string, seam seglog.Seam) (seglog.OpenInfo, func() error) {
			s, info, err := eventstore.Open(eventstore.Options{Dir: dir, BlockBytes: 16, SegmentBytes: 256, Seam: seam})
			if err != nil {
				t.Fatalf("eventstore.Open: %v", err)
			}
			return info, s.Close
		},
		commitOne: func(dir string, seam seglog.Seam, seq int) error {
			s, _, err := eventstore.Open(eventstore.Options{Dir: dir, BlockBytes: 16, SegmentBytes: 256, Seam: seam})
			if err != nil {
				return err
			}
			defer s.Close()
			if err := s.Append(eventstore.Event{Seq: int64(seq), Time: int64(seq) * 1e9}); err != nil {
				return err
			}
			return s.Finalize()
		},
	},
}

// TestRepairIsIdempotent is the cross-layer property: whatever damage the
// first Open repaired, under either real codec, Open → Close → Open finds
// nothing left to repair and the same newest sequence number.
func TestRepairIsIdempotent(t *testing.T) {
	damages := []struct {
		name   string
		damage func(t *testing.T, files []string)
	}{
		{"none", func(*testing.T, []string) {}},
		{"torn tail", func(t *testing.T, files []string) {
			last := files[len(files)-1]
			st, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"torn tail in a non-last file", func(t *testing.T, files []string) {
			st, err := os.Stat(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(files[0], st.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped byte mid-log", func(t *testing.T, files []string) {
			mid := files[len(files)/2]
			data, err := os.ReadFile(mid)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)-20] ^= 0xff
			if err := os.WriteFile(mid, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage appended", func(t *testing.T, files []string) {
			f, err := os.OpenFile(files[len(files)-1], os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			f.WriteString("\x00garbage past the last frame")
			f.Close()
		}},
	}
	for _, ly := range layers {
		for _, dm := range damages {
			t.Run(ly.name+"/"+dm.name, func(t *testing.T) {
				dir := t.TempDir()
				ly.write(t, dir, 200, seglog.Seam{})
				files, _ := filepath.Glob(filepath.Join(dir, ly.glob))
				if len(files) < 3 {
					t.Fatalf("want ≥ 3 segments to damage, got %d", len(files))
				}
				dm.damage(t, files)

				info, closeFn := ly.open(t, dir, seglog.Seam{})
				if dm.name != "none" && info.TornTails+info.CorruptDropped == 0 {
					t.Fatalf("first Open repaired nothing over %q", dm.name)
				}
				if err := closeFn(); err != nil {
					t.Fatalf("Close: %v", err)
				}
				info2, closeFn := ly.open(t, dir, seglog.Seam{})
				defer closeFn()
				if info2.TornTails != 0 || info2.CorruptDropped != 0 || info2.LastSeq != info.LastSeq {
					t.Fatalf("second Open: torn=%d corrupt=%d lastSeq=%d, want 0, 0, %d", info2.TornTails, info2.CorruptDropped, info2.LastSeq, info.LastSeq)
				}
			})
		}
	}
}

// TestDirsyncHookPoint pins the directory-fsync rule under both layers:
// the "dirsync" point fires exactly once per created segment — never per
// commit — and a failure there fails the commit that needed it.
func TestDirsyncHookPoint(t *testing.T) {
	for _, ly := range layers {
		t.Run(ly.name, func(t *testing.T) {
			dir := t.TempDir()
			dirsyncs := 0
			counting := seglog.Seam{Hook: func(point string) error {
				if point == "dirsync" {
					dirsyncs++
				}
				return nil
			}}
			// Many commits across several rotations, then more commits
			// that each reopen the log and continue its newest segment.
			ly.write(t, dir, 200, counting)
			for seq := 201; seq <= 204; seq++ {
				if err := ly.commitOne(dir, counting, seq); err != nil {
					t.Fatalf("commit %d: %v", seq, err)
				}
			}
			files, _ := filepath.Glob(filepath.Join(dir, ly.glob))
			if len(files) < 3 || dirsyncs != len(files) {
				t.Fatalf("%d segments created, %d dirsync hook calls; want one per segment (≥ 3)", len(files), dirsyncs)
			}

			boom := errors.New("directory fsync failed")
			failing := seglog.Seam{Hook: func(point string) error {
				if point == "dirsync" {
					return boom
				}
				return nil
			}}
			if err := ly.commitOne(t.TempDir(), failing, 1); !errors.Is(err, boom) {
				t.Fatalf("commit over a failed dirsync = %v, want the hook error", err)
			}
		})
	}
}
