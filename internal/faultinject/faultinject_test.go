package faultinject

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"logparse/internal/core"
)

// workload renders n well-formed plain log lines.
func workload(n int) string {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "connection %d from host h%d established\n", i, i%7)
	}
	return sb.String()
}

func TestReaderPassthrough(t *testing.T) {
	in := workload(100)
	out, err := io.ReadAll(NewReader(strings.NewReader(in), Faults{}))
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != in {
		t.Error("zero-fault reader altered the stream")
	}
}

func TestReaderInjectedError(t *testing.T) {
	in := workload(100)
	_, err := io.ReadAll(NewReader(strings.NewReader(in), Faults{ErrAfterBytes: 512}))
	if err == nil {
		t.Fatal("injected error never surfaced")
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %T %v, want *InjectedError wrapping ErrInjected", err, err)
	}
}

func TestReaderMidStreamEOF(t *testing.T) {
	in := workload(100)
	out, err := io.ReadAll(NewReader(strings.NewReader(in), Faults{EOFAfterBytes: 512}))
	if err != nil {
		t.Fatalf("mid-stream EOF must read cleanly, got %v", err)
	}
	if len(out) != 512 {
		t.Errorf("read %d bytes, want exactly 512", len(out))
	}
}

func TestReaderLineFaults(t *testing.T) {
	in := workload(30)
	out, err := io.ReadAll(NewReader(strings.NewReader(in), Faults{
		TruncateEvery: 5, TruncateToBytes: 4,
		NULEvery:      7,
		OverlongEvery: 11, OverlongBytes: 64,
	}))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(out), "\n"), "\n")
	if len(lines) != 30 {
		t.Fatalf("got %d lines, want 30", len(lines))
	}
	if lines[4] != "conn" {
		t.Errorf("line 5 = %q, want truncated to 4 bytes", lines[4])
	}
	if !strings.ContainsRune(lines[6], 0) {
		t.Errorf("line 7 carries no NUL byte: %q", lines[6])
	}
	if len(lines[10]) < 64 {
		t.Errorf("line 11 not padded over-long: %d bytes", len(lines[10]))
	}
	if lines[0] != "connection 0 from host h0 established" {
		t.Errorf("unfaulted line altered: %q", lines[0])
	}
}

// TestEveryFaultClassSurvivesReadMessages is the fault-injection acceptance
// suite for the input layer: for every fault class, the lenient reader must
// return without error while counting the damage, and the strict reader
// must fail with a typed error — never crash, never abort mid-stream
// untyped.
func TestEveryFaultClassSurvivesReadMessages(t *testing.T) {
	const lines = 50
	maxLine := 128 // small cap so over-long injection trips it cheaply
	tests := []struct {
		name    string
		faults  Faults
		damaged func(s core.ReadStats) int // the stat the fault must bump
		// readErr is set when even the lenient read must fail (the typed
		// error is asserted separately).
		readErr bool
	}{
		{
			name:    "read error",
			faults:  Faults{ErrAfterBytes: 700},
			readErr: true,
		},
		{
			name:    "truncated lines",
			faults:  Faults{TruncateEvery: 10, TruncateToBytes: 3},
			damaged: func(core.ReadStats) int { return 0 }, // truncation yields short but valid lines
		},
		{
			name:    "NUL bytes",
			faults:  Faults{NULEvery: 10},
			damaged: func(s core.ReadStats) int { return s.Corrupt },
		},
		{
			name:    "over-long lines",
			faults:  Faults{OverlongEvery: 10, OverlongBytes: 4096},
			damaged: func(s core.ReadStats) int { return s.Oversized },
		},
		{
			name:    "mid-stream EOF",
			faults:  Faults{EOFAfterBytes: 700},
			damaged: func(core.ReadStats) int { return 0 }, // clean truncation of the stream
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(workload(lines)), tc.faults)
			msgs, stats, err := core.ReadMessagesOpts(r, core.ReadOptions{MaxLineBytes: maxLine})
			if tc.readErr {
				if err == nil {
					t.Fatal("injected stream error swallowed")
				}
				var ie *InjectedError
				if !errors.As(err, &ie) {
					t.Fatalf("err = %T %v, want typed *InjectedError", err, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("lenient read failed: %v", err)
			}
			if len(msgs) == 0 {
				t.Fatal("lenient read salvaged nothing")
			}
			if tc.damaged != nil {
				want := 0
				if tc.faults.NULEvery > 0 || tc.faults.OverlongEvery > 0 {
					want = lines / 10
				}
				if got := tc.damaged(stats); got != want {
					t.Errorf("damage count = %d, want %d (stats %+v)", got, want, stats)
				}
			}
			// Strict mode must refuse the same damaged stream with a typed
			// error when any line was corrupt or oversized.
			if tc.faults.NULEvery > 0 || tc.faults.OverlongEvery > 0 {
				r := NewReader(strings.NewReader(workload(lines)), tc.faults)
				_, _, err := core.ReadMessagesOpts(r, core.ReadOptions{MaxLineBytes: maxLine, Strict: true})
				var cle *core.CorruptLineError
				if !errors.As(err, &cle) {
					t.Fatalf("strict read: err = %T %v, want *CorruptLineError", err, err)
				}
			}
		})
	}
}

func TestHangParserHonoursContext(t *testing.T) {
	p := NewHangParser(true)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := p.ParseCtx(ctx, []core.LogMessage{{Content: "x"}})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want DeadlineExceeded", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Error("honouring hang parser did not return promptly")
	}
}

func TestHangParserRelease(t *testing.T) {
	p := NewHangParser(false)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.ParseCtx(context.Background(), nil)
	}()
	p.Release()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Release did not unblock the hang parser")
	}
}

func TestPanicParserPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("PanicParser did not panic")
		}
	}()
	_, _ = PanicParser{}.Parse([]core.LogMessage{{Content: "x"}})
}

func TestReaderEOFAfterLines(t *testing.T) {
	const input = "one\ntwo\nthree\nfour\n"
	r := NewReader(strings.NewReader(input), Faults{EOFAfterLines: 2})
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("ReadAll: %v (EOFAfterLines must end the stream cleanly)", err)
	}
	if got := string(data); got != "one\ntwo\n" {
		t.Fatalf("served %q, want first two lines", got)
	}
	// Deterministic: a second identical reader serves the same bytes.
	r2 := NewReader(strings.NewReader(input), Faults{EOFAfterLines: 2})
	data2, err := io.ReadAll(r2)
	if err != nil || !bytes.Equal(data, data2) {
		t.Fatalf("EOFAfterLines not deterministic: %q vs %q (err=%v)", data, data2, err)
	}
}

func TestReaderEOFAfterLinesBeyondInput(t *testing.T) {
	r := NewReader(strings.NewReader("a\nb\n"), Faults{EOFAfterLines: 10})
	data, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "a\nb\n" {
		t.Fatalf("served %q, want whole input when the limit exceeds it", data)
	}
}
