package stream

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"

	"logparse/internal/core"
)

// Feed is the file-mode client: it serves e, reads r line by line and pushes
// every non-empty line, from the first — the engine skips the prefix its
// checkpoint already covers, as it does for any client replaying its stream
// — and stops e at the end of r. It returns
// what Serve returns: nil once every line is processed and the closing
// checkpoint is written, or ctx's error when ctx ends first (the crash
// model: no checkpoint). A read error also stops e; it is returned, joined
// with Serve's error if any, once the closing checkpoint is written, and a
// later Feed over a healthy r resumes.
//
// Lines are read with a cap of MaxLineBytes+1 bytes, so that the engine,
// not the reader, decides that a line is over-long, as for a pushed line.
// Empty lines do not count, so the numbering is the same on every replay.
// Each PushBatch carries ingestBatch lines, the most the admitter takes at a
// time: a larger one would only hold more lines outside the ring.
//
// Feed pushes only into the incarnation it starts: on an engine that is
// already serving it returns ErrAlreadyRunning and pushes nothing. r is read
// on a goroutine Feed waits for, so a Read that blocks holds Feed.
func Feed(ctx context.Context, e *Engine, r io.Reader) error {
	rg, start, end, err := e.begin(ctx)
	if err != nil {
		return err
	}
	read := make(chan error, 1)
	go func() {
		defer rg.close()
		read <- e.feed(ctx, r)
	}()
	err = func() error {
		defer end()
		return e.serve(ctx, rg, start)
	}()
	return errors.Join(<-read, err)
}

// feed pushes the lines of r into the serving incarnation and returns at
// the end of r, with a read error, or, with nil, once the incarnation stops
// admitting: Serve's error says why.
func (e *Engine) feed(ctx context.Context, r io.Reader) error {
	if e.WaitServing(ctx) != nil {
		return nil
	}
	max := e.cfg.MaxLineBytes
	br := bufio.NewReaderSize(r, 64*1024)
	var buf, scratch []byte
	lines := make([][]byte, 0, ingestBatch)
	for {
		line, over, err := core.ReadLineInto(br, &scratch, max+1)
		if err != nil && !errors.Is(err, io.EOF) {
			e.PushBatch(ctx, lines)
			return fmt.Errorf("stream: read source: %w", err)
		}
		if over {
			// ReadLineInto drops a '\r' it cut the line at; the byte is
			// still there, and the line must stay over-long to the engine.
			line = line[:max+1]
		}
		if len(line) > 0 {
			buf = append(buf, line...)
			lines = append(lines, buf[len(buf)-len(line):])
		}
		if len(lines) == cap(lines) || err != nil {
			if _, perr := e.PushBatch(ctx, lines); perr != nil || err != nil {
				return nil
			}
			buf, lines = buf[:0], lines[:0]
		}
	}
}
