package stream

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"logparse/internal/eventstore"
	"logparse/internal/seglog"
	"logparse/internal/stream/wal"
)

// persisted is one kind of file a tenant root holds, written healthy by its
// own writer, with the read-only check that must name its damage and, for a
// segment log, the writer's Open that repairs it.
type persisted struct {
	name string
	// log is the Log every damage report for this file carries.
	log string
	// write fills dir with a healthy root and returns the file to damage:
	// a segment of two or more frames, or the sole base.
	write func(t *testing.T, dir string) string
	// check looks at dir and path without repairing anything.
	check func(dir, path string) error
	// open is the writer's Open over dir; nil for a base, which no writer
	// repairs — the next save replaces it.
	open func(dir string) (seglog.OpenInfo, error)
}

var persistedFiles = []persisted{
	{
		name: "wal segment", log: "wal",
		write: func(t *testing.T, dir string) string {
			w, _, err := wal.Open(wal.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for seq := uint64(1); seq <= 3; seq++ {
				if err := w.Append(seq, []byte("connection from 10.0.0.1 closed")); err != nil {
					t.Fatal(err)
				}
				if err := w.Commit(); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			return soleFile(t, dir, "wal-*.seg")
		},
		check: func(_, path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			_, err = wal.DecodeSegment(path, data, nil)
			return err
		},
		open: func(dir string) (seglog.OpenInfo, error) {
			w, info, err := wal.Open(wal.Options{Dir: dir})
			if err == nil {
				err = w.Close()
			}
			return info, err
		},
	},
	{
		name: "event-store segment", log: "eventstore",
		write: func(t *testing.T, dir string) string {
			s, _, err := eventstore.Open(eventstore.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			for seq := int64(1); seq <= 3; seq++ {
				if err := s.Append(eventstore.Event{Seq: seq, Time: seq * 1e9, Template: int32(seq % 2)}); err != nil {
					t.Fatal(err)
				}
				if err := s.Finalize(); err != nil { // one block per event
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			return soleFile(t, dir, "evt-*.seg")
		},
		check: func(_, path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			_, err = eventstore.DecodeSegment(path, data, nil)
			return err
		},
		open: func(dir string) (seglog.OpenInfo, error) {
			s, info, err := eventstore.Open(eventstore.Options{Dir: dir})
			if err == nil {
				err = s.Close()
			}
			return info, err
		},
	},
	{
		name: "checkpoint delta segment", log: deltaSpec.Name,
		write: func(t *testing.T, dir string) string {
			s := damageStore(t, dir)
			for _, off := range []int64{20, 30} {
				if _, err := s.saveDelta(testDelta(off)); err != nil {
					t.Fatal(err)
				}
			}
			s.closeLog()
			return soleFile(t, dir, deltaSpec.Prefix+"-*.seg")
		},
		check: func(dir, _ string) error {
			s, err := NewStore(dir)
			if err != nil {
				return err
			}
			_, info, err := s.Load()
			if err != nil {
				return err
			}
			return info.ChainEnd
		},
		// The delta log's writer is the Store's first save, which opens the
		// log exactly so (Store.openLog).
		open: func(dir string) (seglog.OpenInfo, error) {
			log, info, err := seglog.Open(&deltaSpec, seglog.Options{Dir: dir}, wal.VerifyRecord, nil)
			if err == nil {
				err = log.Close()
			}
			return info, err
		},
	},
	{
		name: "sole checkpoint base", log: "checkpoint",
		write: func(t *testing.T, dir string) string {
			damageStore(t, dir).closeLog()
			return filepath.Join(dir, currentName)
		},
		check: func(dir, _ string) error {
			s, err := NewStore(dir)
			if err != nil {
				return err
			}
			_, _, err = s.Load()
			return err
		},
	},
}

// damageStore is a checkpoint directory holding one base, testState(10).
func damageStore(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(testState(10)); err != nil {
		t.Fatal(err)
	}
	return s
}

// soleFile returns the one file in dir matching pattern.
func soleFile(t *testing.T, dir, pattern string) string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil || len(names) != 1 {
		t.Fatalf("%s in %s: %v, %v; want exactly one file", pattern, dir, names, err)
	}
	return names[0]
}

// A damage is one way a persisted file goes bad on disk.
type damage struct {
	name string
	hurt func(t *testing.T, path string)
	// torn reports whether a segment so damaged reads as a torn tail. A
	// base is never published torn, so for a base every damage is corrupt.
	torn bool
}

var damages = []damage{
	{name: "flipped byte", hurt: func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)-2] ^= 0xff // inside the last frame or the base's payload
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{name: "cut mid-frame", torn: true, hurt: func(t *testing.T, path string) {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, fi.Size()-3); err != nil {
			t.Fatal(err)
		}
	}},
}

// damagedRoot writes f's healthy root into a fresh directory and applies d
// to the file it names, returning the directory and that file.
func damagedRoot(t *testing.T, f persisted, d damage) (dir, path string) {
	t.Helper()
	dir = t.TempDir()
	path = f.write(t, dir)
	d.hurt(t, path)
	return dir, path
}

// TestDamageIsReportedOnce is the one account of damage across every
// persisted file: each damage, to each file, reaches its read-only check as
// seglog's *TornTailError or *CorruptError naming the log and the file,
// and the read leaves the file as it was. For a segment log the writer's
// Open then counts the repair in seglog's OpenInfo.
func TestDamageIsReportedOnce(t *testing.T) {
	for _, f := range persistedFiles {
		for _, d := range damages {
			t.Run(f.name+"/"+d.name, func(t *testing.T) {
				dir, path := damagedRoot(t, f, d)
				before, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				err = f.check(dir, path)
				torn := d.torn && f.open != nil
				var log, at string
				var tt *seglog.TornTailError
				var ce *seglog.CorruptError
				switch {
				case torn && errors.As(err, &tt):
					log, at = tt.Log, tt.Path
				case !torn && errors.As(err, &ce):
					log, at = ce.Log, ce.Path
				case torn:
					t.Fatalf("check = %v (%T), want a *seglog.TornTailError", err, err)
				default:
					t.Fatalf("check = %v (%T), want a *seglog.CorruptError", err, err)
				}
				if log != f.log || at != path {
					t.Fatalf("check = %v: log %q, path %s; want %q, %s", err, log, at, f.log, path)
				}
				if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
					t.Fatalf("the read-only check changed %s (%v)", path, err)
				}

				if f.open == nil {
					return
				}
				info, err := f.open(dir)
				if err != nil {
					t.Fatal(err)
				}
				repaired := &info.CorruptDropped
				if torn {
					repaired = &info.TornTails
				}
				if *repaired != 1 || info.TornTails+info.CorruptDropped != 1 || info.Segments != 1 {
					t.Fatalf("writer's Open = %+v, want one repair counted as torn: %v, the segment kept", info, torn)
				}
				if err := f.check(dir, path); err != nil {
					t.Fatalf("check after the repair = %v, want clean", err)
				}
			})
		}
	}
}
