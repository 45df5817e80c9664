package faultinject

import (
	"errors"
	"io"
)

// ErrInjectedCrash is the sentinel every WALCrashFile failure wraps, so
// tests can assert a failure came from the harness and not from a real
// disk problem.
var ErrInjectedCrash = errors.New("faultinject: injected crash")

// Syncer is the write-plus-fsync surface a segment file runs on. It is
// structurally identical to seglog.File; declaring it here keeps the
// chaos harness dependency-free of the packages it torments.
type Syncer interface {
	io.Writer
	Sync() error
}

// WALCrashFile wraps a WAL segment file with the two crash shapes a kill -9
// can produce on an append-only log:
//
//   - a torn write (TearAfter ≥ 0): the first TearAfter bytes reach the
//     file, the write that crosses the limit is cut short on disk, and the
//     writer gets an error — the process "died" mid-record, so nothing
//     after the tear was ever acknowledged. Every later write fails too.
//
//   - a failed fsync (SyncErrAt ≥ 1): the Nth Sync call returns an error
//     after the data already reached the OS — the partial-fsync shape,
//     where recovery may find MORE than was acknowledged but never less.
//
// Both failures are permanent for the wrapped file, matching the WAL's
// latch-on-first-error discipline.
type WALCrashFile struct {
	f Syncer
	// TearAfter tears the byte stream after this many bytes (-1 disables).
	TearAfter int64
	// SyncErrAt fails the Nth Sync call, 1-based (0 disables).
	SyncErrAt int
	// Armed, when non-nil, gates both faults: while it reports false the
	// file is transparent and neither bytes nor syncs are counted — how a
	// test tears the Nth save of a log whose segment outlives many saves.
	Armed func() bool

	written int64
	syncs   int
	failed  bool
}

// NewWALCrashFile wraps f with no faults armed; arm TearAfter/SyncErrAt
// before handing it to the WAL.
func NewWALCrashFile(f Syncer) *WALCrashFile {
	return &WALCrashFile{f: f, TearAfter: -1}
}

// Write implements io.Writer with the torn-write fault.
func (c *WALCrashFile) Write(p []byte) (int, error) {
	if c.failed {
		return 0, ErrInjectedCrash
	}
	if c.Armed != nil && !c.Armed() {
		return c.f.Write(p)
	}
	if c.TearAfter >= 0 {
		if room := c.TearAfter - c.written; room < int64(len(p)) {
			if room < 0 {
				room = 0
			}
			n, _ := c.f.Write(p[:room])
			c.written += int64(n)
			c.failed = true
			return n, ErrInjectedCrash
		}
	}
	n, err := c.f.Write(p)
	c.written += int64(n)
	return n, err
}

// Sync implements the fsync side with the failed-fsync fault.
func (c *WALCrashFile) Sync() error {
	if c.failed {
		return ErrInjectedCrash
	}
	if c.Armed != nil && !c.Armed() {
		return c.f.Sync()
	}
	c.syncs++
	if c.SyncErrAt > 0 && c.syncs == c.SyncErrAt {
		c.failed = true
		return ErrInjectedCrash
	}
	return c.f.Sync()
}

// Crashed reports whether a fault has fired.
func (c *WALCrashFile) Crashed() bool { return c.failed }
