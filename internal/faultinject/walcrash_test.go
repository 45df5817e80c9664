package faultinject

import (
	"bytes"
	"errors"
	"testing"
)

// memFile is an in-memory Syncer.
type memFile struct {
	bytes.Buffer
	syncs int
}

func (m *memFile) Sync() error { m.syncs++; return nil }

// TestWALCrashFileTearsMidWrite: the write that crosses TearAfter keeps its
// prefix, reports the injected crash, and every later write and sync fails.
func TestWALCrashFileTearsMidWrite(t *testing.T) {
	var f memFile
	c := NewWALCrashFile(&f)
	c.TearAfter = 10
	if n, err := c.Write([]byte("abcdefgh")); n != 8 || err != nil {
		t.Fatalf("write under the limit = (%d, %v), want (8, nil)", n, err)
	}
	n, err := c.Write([]byte("ijklmnop"))
	if n != 2 || !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("write across the limit = (%d, %v), want (2, injected crash)", n, err)
	}
	if got := f.String(); got != "abcdefghij" {
		t.Fatalf("file holds %q, want the first 10 bytes", got)
	}
	if _, err := c.Write([]byte("q")); !errors.Is(err, ErrInjectedCrash) || !c.Crashed() {
		t.Fatalf("write after the tear = %v (crashed %v), want it to keep failing", err, c.Crashed())
	}
	if err := c.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("sync after the tear = %v, want the injected crash", err)
	}
}

// TestWALCrashFileArmedGate: while Armed reports false the file is
// transparent and counts nothing, so the faults land on the first write and
// sync after arming however much went through before.
func TestWALCrashFileArmedGate(t *testing.T) {
	var f memFile
	armed := false
	c := NewWALCrashFile(&f)
	c.TearAfter, c.SyncErrAt = 3, 1
	c.Armed = func() bool { return armed }
	for i := 0; i < 5; i++ {
		if _, err := c.Write([]byte("0123456789")); err != nil {
			t.Fatal(err)
		}
		if err := c.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	armed = true
	if err := c.Sync(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("first armed sync = %v, want the injected failure", err)
	}

	f = memFile{}
	armed = false
	c = NewWALCrashFile(&f)
	c.TearAfter = 3
	c.Armed = func() bool { return armed }
	c.Write([]byte("0123456789"))
	armed = true
	if n, err := c.Write([]byte("abcdef")); n != 3 || !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("first armed write = (%d, %v), want 3 bytes and the injected crash", n, err)
	}
	if got := f.String(); got != "0123456789abc" {
		t.Fatalf("file holds %q", got)
	}
}
