// Package faultinject is the toolkit's chaos harness: deterministic fault
// injection for the robustness layer's tests. It provides (a) a chaos
// io.Reader that corrupts a log stream the way real deployments do —
// injected read errors, truncated lines, NUL bytes, over-long lines,
// mid-stream EOF — and (b) mock parsers that panic or hang. The
// fault-injection suite uses both to prove that every failure mode surfaces
// as a typed error or a successful degraded parse, never a crash or a hang.
//
// All injection is deterministic (counter- or byte-offset-driven, no wall
// clock, no global RNG) so failures reproduce exactly.
package faultinject

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
)

// ErrInjected is the root of every injected read error.
var ErrInjected = errors.New("faultinject: injected read error")

// InjectedError is the typed read error the chaos reader returns,
// modelling a source that fails mid-read.
type InjectedError struct {
	// Offset is the stream byte offset at which the error fired.
	Offset int64
}

func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected read error at byte %d", e.Offset)
}

// Unwrap makes errors.Is(err, ErrInjected) work.
func (e *InjectedError) Unwrap() error { return ErrInjected }

// Faults configures the chaos reader. The zero value injects nothing.
// Line-level faults count physical lines starting at 1 and fire on every
// line whose number is a positive multiple of the given period.
type Faults struct {
	// ErrAfterBytes returns an *InjectedError once this many bytes have
	// been served (0 = never).
	ErrAfterBytes int64
	// EOFAfterBytes ends the stream cleanly (io.EOF) once this many bytes
	// have been served — a mid-stream EOF as produced by a rotated or
	// truncated file (0 = never).
	EOFAfterBytes int64
	// EOFAfterLines ends the stream cleanly (io.EOF) after this many whole
	// lines have been served — the line-aligned mid-stream EOF a log
	// follower sees when its file is rotated between lines (0 = never).
	EOFAfterLines int
	// TruncateEvery truncates every n-th line to TruncateToBytes bytes.
	TruncateEvery   int
	TruncateToBytes int
	// NULEvery overwrites one byte of every n-th line with NUL.
	NULEvery int
	// OverlongEvery pads every n-th line with OverlongBytes filler bytes,
	// manufacturing lines longer than any configured reader cap.
	OverlongEvery int
	OverlongBytes int
}

// Reader is a chaos io.Reader. It consumes the inner reader line-by-line,
// applies the configured per-line faults, and serves the result through the
// byte-level faults (injected error, mid-stream EOF).
type Reader struct {
	br      *bufio.Reader
	faults  Faults
	pending []byte // mangled bytes not yet served
	served  int64
	lineNo  int
	inErr   error // terminal state of the inner reader
}

// NewReader wraps r with fault injection.
func NewReader(r io.Reader, f Faults) *Reader {
	return &Reader{br: bufio.NewReader(r), faults: f}
}

// Read implements io.Reader.
func (c *Reader) Read(p []byte) (int, error) {
	if c.faults.ErrAfterBytes > 0 && c.served >= c.faults.ErrAfterBytes {
		return 0, &InjectedError{Offset: c.served}
	}
	if c.faults.EOFAfterBytes > 0 && c.served >= c.faults.EOFAfterBytes {
		return 0, io.EOF
	}
	for len(c.pending) == 0 {
		if c.inErr != nil {
			return 0, c.inErr
		}
		c.fill()
	}
	n := copy(p, c.pending)
	// Byte-level faults fire mid-stream, not only on line boundaries.
	if c.faults.ErrAfterBytes > 0 && c.served+int64(n) > c.faults.ErrAfterBytes {
		n = int(c.faults.ErrAfterBytes - c.served)
	}
	if c.faults.EOFAfterBytes > 0 && c.served+int64(n) > c.faults.EOFAfterBytes {
		n = int(c.faults.EOFAfterBytes - c.served)
	}
	c.pending = c.pending[n:]
	c.served += int64(n)
	if n == 0 {
		// The fault boundary is exactly here; report it now.
		if c.faults.ErrAfterBytes > 0 && c.served >= c.faults.ErrAfterBytes {
			return 0, &InjectedError{Offset: c.served}
		}
		return 0, io.EOF
	}
	return n, nil
}

// fill reads the next inner line, applies line-level faults, and queues the
// result.
func (c *Reader) fill() {
	if c.faults.EOFAfterLines > 0 && c.lineNo >= c.faults.EOFAfterLines {
		c.inErr = io.EOF
		return
	}
	line, err := c.br.ReadBytes('\n')
	if len(line) > 0 {
		c.lineNo++
		hadNL := line[len(line)-1] == '\n'
		if hadNL {
			line = line[:len(line)-1]
		}
		line = c.mangle(line)
		if hadNL {
			line = append(line, '\n')
		}
		c.pending = line
	}
	if err != nil {
		c.inErr = err
	}
}

// fires reports whether a per-line fault with the given period fires on the
// current line.
func (c *Reader) fires(every int) bool {
	return every > 0 && c.lineNo%every == 0
}

// mangle applies the configured line-level faults to one line (without its
// newline).
func (c *Reader) mangle(line []byte) []byte {
	if c.fires(c.faults.TruncateEvery) && len(line) > c.faults.TruncateToBytes {
		line = line[:c.faults.TruncateToBytes]
	}
	if c.fires(c.faults.NULEvery) {
		if len(line) == 0 {
			line = []byte{0}
		} else {
			line = append([]byte(nil), line...)
			line[len(line)/2] = 0
		}
	}
	if c.fires(c.faults.OverlongEvery) && c.faults.OverlongBytes > 0 {
		line = append(line, bytes.Repeat([]byte{'x'}, c.faults.OverlongBytes)...)
	}
	return line
}
