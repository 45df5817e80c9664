package core

import (
	"bufio"
	"strings"
	"testing"
)

// TestByteHotPathZeroAllocs pins the streaming ingest primitives at zero
// allocations per line (pattern from internal/telemetry/alloc_test.go):
// reading a buffered line as a view, extracting its content, and
// tokenising into a reused buffer. Any allocation here multiplies by every
// line the stream engine ingests — the regression this test exists to
// catch.
func TestByteHotPathZeroAllocs(t *testing.T) {
	plain := []byte("Receiving block blk_42 src: /10.0.0.1:50010 dest: /10.0.0.2:50010")
	annotated := []byte("T7\ts-9\tsession 4821 closed after 93 ms")
	buf := make([][]byte, 0, 16)
	var scratch []byte

	src := strings.NewReader("connection from 10.0.0.9 port 1042\nsecond line\n")
	br := bufio.NewReaderSize(src, 64*1024)

	cases := []struct {
		name string
		fn   func()
	}{
		{"tokenize-bytes", func() {
			buf = TokenizeBytes(plain, buf)
			if len(buf) != 7 {
				t.Fatalf("got %d tokens, want 7", len(buf))
			}
		}},
		{"content-of-bytes", func() {
			if c := ContentOfBytes(annotated); len(c) != len("session 4821 closed after 93 ms") {
				t.Fatalf("wrong content %q", c)
			}
			if c := ContentOfBytes(plain); len(c) != len(plain) {
				t.Fatalf("plain line mutated to %q", c)
			}
		}},
		{"read-line-into-fast-path", func() {
			src.Seek(0, 0)
			br.Reset(src)
			line, oversized, err := ReadLineInto(br, &scratch, DefaultMaxLineBytes)
			if err != nil || oversized || len(line) != len("connection from 10.0.0.9 port 1042") {
				t.Fatalf("line=%q oversized=%v err=%v", line, oversized, err)
			}
		}},
	}
	for _, tc := range cases {
		tc.fn() // warm up one-time growth (token buffer, reader state)
		if allocs := testing.AllocsPerRun(100, tc.fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on the byte hot path, want 0", tc.name, allocs)
		}
	}
}

// repeatReader yields s over and over, never reaching EOF.
type repeatReader struct {
	s   string
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.s[r.off:])
	r.off = (r.off + n) % len(r.s)
	return n, nil
}

// TestReadLineIntoReusesScratch pins the slow path at zero allocations per
// line: a 100 KiB line spans refills of the 64 KiB reader buffer and is
// accumulated in the caller's scratch, which keeps its size for the next one
// instead of being allocated afresh line after line.
func TestReadLineIntoReusesScratch(t *testing.T) {
	const n = 100 << 10
	br := bufio.NewReaderSize(&repeatReader{s: strings.Repeat("x", n) + "\r\n"}, 64*1024)
	var scratch []byte
	read := func() {
		line, oversized, err := ReadLineInto(br, &scratch, DefaultMaxLineBytes)
		if err != nil || oversized || len(line) != n {
			t.Fatalf("read %d bytes, oversized=%v err=%v; want %d", len(line), oversized, err, n)
		}
	}
	read() // grow scratch once
	if allocs := testing.AllocsPerRun(50, read); allocs != 0 {
		t.Fatalf("%v allocs per 100 KiB line, want 0", allocs)
	}
}
