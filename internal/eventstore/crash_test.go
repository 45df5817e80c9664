package eventstore

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"logparse/internal/faultinject"
	"logparse/internal/seglog"
)

// crashOpts arms a WALCrashFile on every segment handle the store opens
// after this point. Counting starts at wrap time, so a TearAfter of k
// tears the k-th byte written through the handle from now on.
func crashOpts(dir string, arm func(*faultinject.WALCrashFile)) Options {
	o := smallOpts(dir)
	o.Seam.Wrap = func(f *os.File) seglog.File {
		cf := faultinject.NewWALCrashFile(f)
		arm(cf)
		return cf
	}
	return o
}

// TestCrashTornBlockWrite mirrors the WAL's mid-record tear: a block
// write cut short on disk must surface as an injected-crash error, latch
// the store, and on reopen be truncated away with every previously
// finalized event intact.
func TestCrashTornBlockWrite(t *testing.T) {
	dir := t.TempDir()

	// Phase 1: a healthy store finalizes 300 events.
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 300)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	durable := readAll(t, dir)
	if len(durable) != 300 {
		t.Fatalf("phase 1 wrote %d events", len(durable))
	}

	// Phase 2: reopen with a tear 10 bytes into the next write. The
	// reopened tail handle starts counting at zero, so the first sealed
	// block is cut short mid-image.
	s, _, err = Open(crashOpts(dir, func(cf *faultinject.WALCrashFile) {
		cf.TearAfter = 10
	}))
	if err != nil {
		t.Fatalf("reopen with fault: %v", err)
	}
	appendSynth(t, s, 300, 320) // stays under BlockBytes: seal happens at Finalize
	err = s.Finalize()
	if !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("Finalize over torn write = %v, want injected crash", err)
	}
	// The failure is latched: the store refuses everything after it.
	if err := s.Append(synthEvent(320)); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("Append after latched crash = %v", err)
	}
	if err := s.Finalize(); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("Finalize after latched crash = %v", err)
	}
	s.Close()

	// Phase 3: recovery truncates the torn block; the finalized prefix
	// survives byte-for-byte.
	s, info, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s.Close()
	if info.TornTails != 1 {
		t.Fatalf("recovery info: %+v, want 1 torn tail", info)
	}
	if info.TornBytes == 0 {
		t.Fatalf("torn tail removed no bytes: %+v", info)
	}
	if info.LastSeq != 300 || info.Events != 300 {
		t.Fatalf("recovery lost finalized events: %+v", info)
	}
	got := readAll(t, dir)
	if len(got) != len(durable) {
		t.Fatalf("recovered %d events, want %d", len(got), len(durable))
	}
	for i := range got {
		if got[i] != durable[i] {
			t.Fatalf("recovered event %d diverged: %+v vs %+v", i, got[i], durable[i])
		}
	}
}

// TestCrashFailedFinalizeSync mirrors the WAL's failed-fsync shape: the
// block reached the OS but the sync errored, so recovery may find MORE
// than was acknowledged — never less — and AlignTo drops the surplus.
func TestCrashFailedFinalizeSync(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 300)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	s, _, err = Open(crashOpts(dir, func(cf *faultinject.WALCrashFile) {
		cf.SyncErrAt = 1
	}))
	if err != nil {
		t.Fatalf("reopen with fault: %v", err)
	}
	appendSynth(t, s, 300, 350)
	if err := s.Finalize(); !errors.Is(err, faultinject.ErrInjectedCrash) {
		t.Fatalf("Finalize over failed sync = %v, want injected crash", err)
	}
	s.Close()

	s, info, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s.Close()
	if info.LastSeq < 300 {
		t.Fatalf("failed fsync lost acknowledged events: %+v", info)
	}
	// The unacknowledged surplus (if the page cache kept it) is dropped by
	// the restart handshake; what remains is exactly the acknowledged
	// prefix, which replay extends.
	if _, err := s.AlignTo(300); err != nil {
		t.Fatalf("AlignTo: %v", err)
	}
	if got := s.LastSeq(); got != 300 {
		t.Fatalf("LastSeq after align = %d, want 300", got)
	}
}

// TestCrashHookPoints freezes the two injected crash points and proves
// each leaves a recoverable directory.
func TestCrashHookPoints(t *testing.T) {
	for _, point := range []string{"block", "finalize"} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			s, _, err := Open(smallOpts(dir))
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			appendSynth(t, s, 0, 300)
			if err := s.Finalize(); err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			boom := errors.New("crash point reached")
			o := smallOpts(dir)
			fired := false
			o.Seam.Hook = func(p string) error {
				if p == point {
					fired = true
					return boom
				}
				return nil
			}
			s, _, err = Open(o)
			if err != nil {
				t.Fatalf("reopen with hook: %v", err)
			}
			appendSynth(t, s, 300, 320) // under BlockBytes: the hook fires at Finalize
			if err := s.Finalize(); !errors.Is(err, boom) {
				t.Fatalf("Finalize = %v, want hook error", err)
			}
			if !fired {
				t.Fatal("hook never fired")
			}
			if err := s.Append(synthEvent(320)); !errors.Is(err, boom) {
				t.Fatalf("Append after hook crash = %v", err)
			}
			s.Close()

			s, info, err := Open(smallOpts(dir))
			if err != nil {
				t.Fatalf("recovery open: %v", err)
			}
			defer s.Close()
			// At both points the block's bytes were fully written, just not
			// yet committed/synced — recovery finds a whole block and keeps
			// it; the alignment handshake reconciles it with the checkpoint.
			if info.LastSeq < 300 {
				t.Fatalf("crash at %q lost finalized events: %+v", point, info)
			}
		})
	}
}

// TestCrashCorruptMidFile flips a byte inside an early block: recovery
// must classify it as corruption (not a torn tail), truncate the file
// there, and drop every later segment as untrusted.
func TestCrashCorruptMidFile(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 1200)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	segs := s.Stats().Segments
	if segs < 2 {
		t.Fatalf("need ≥2 segments, got %d", segs)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, _ := filepath.Glob(filepath.Join(dir, "evt-*.seg"))
	first := names[0]
	data, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one byte inside the first block's body (past the headers).
	data[segHeaderSize+blockHeaderSize+4] ^= 0xff
	if err := os.WriteFile(first, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s, info, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	defer s.Close()
	if info.CorruptDropped == 0 {
		t.Fatalf("corruption not detected: %+v", info)
	}
	if info.TornTails != 0 {
		t.Fatalf("corruption misclassified as torn tail: %+v", info)
	}
	// The first block was damaged, so nothing survives — and crucially no
	// later segment leaks back in out of order.
	if info.Events != 0 || info.Segments != 0 {
		t.Fatalf("untrusted data survived: %+v", info)
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "evt-*.seg")); len(left) != 0 {
		t.Fatalf("untrusted segment files left on disk: %v", left)
	}
	// The store is usable again from scratch.
	appendSynth(t, s, 0, 10)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize after quarantine: %v", err)
	}
}

// TestCrashTruncatedTail simulates the plain kill -9 shape — the file
// simply ends mid-block — without the fault harness.
func TestCrashTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 600)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	blocks := s.Stats().Blocks
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	names, _ := filepath.Glob(filepath.Join(dir, "evt-*.seg"))
	last := names[len(names)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	s, info, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	if info.TornTails != 1 || info.CorruptDropped != 0 {
		t.Fatalf("recovery info: %+v", info)
	}
	if info.Blocks != blocks-1 {
		t.Fatalf("recovered %d blocks, want %d (exactly the torn one lost)", info.Blocks, blocks-1)
	}
	// Appending after repair continues the sequence cleanly.
	lo := int(info.LastSeq)
	appendSynth(t, s, lo, 600)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize after repair: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	got := readAll(t, dir)
	if len(got) != 600 {
		t.Fatalf("converged to %d events, want 600", len(got))
	}
	for i, ev := range got {
		if ev != synthEvent(i) {
			t.Fatalf("event %d diverged after repair: %+v", i, ev)
		}
	}
}

// TestReaderToleratesTornTail proves the read path serves the finalized
// prefix under damage instead of repairing or failing — repair is the
// writer's job.
func TestReaderToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	s, _, err := Open(smallOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	appendSynth(t, s, 0, 600)
	if err := s.Finalize(); err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	names, _ := filepath.Glob(filepath.Join(dir, "evt-*.seg"))
	last := names[len(names)-1]
	fi, _ := os.Stat(last)
	if err := os.Truncate(last, fi.Size()-5); err != nil {
		t.Fatal(err)
	}

	r, info, err := OpenReader(dir, ReaderOptions{})
	if err != nil {
		t.Fatalf("OpenReader over torn tail: %v", err)
	}
	if !info.TornTail {
		t.Fatalf("torn tail not reported: %+v", info)
	}
	var got int64
	if _, err := r.Scan(Query{IncludeUnmatched: true}, func(Event) error {
		got++
		return nil
	}); err != nil {
		t.Fatalf("Scan over torn tail: %v", err)
	}
	if got != info.Events || got == 0 || got >= 600 {
		t.Fatalf("served %d events over torn tail (info %+v)", got, info)
	}
	// The file is untouched: tolerate, don't repair.
	fi2, _ := os.Stat(last)
	if fi2.Size() != fi.Size()-5 {
		t.Fatalf("reader modified the segment: %d -> %d", fi.Size()-5, fi2.Size())
	}
}
