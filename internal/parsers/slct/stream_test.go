package slct

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
)

// memSource makes a re-openable source from dataset messages.
func memSource(t *testing.T, msgs []core.LogMessage) func() (io.ReadCloser, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := core.WriteMessages(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	return func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
}

// streamEqualsBatch requires ParseStream over data to be exactly ParseCtx
// over core.ReadMessages of the same bytes: the same templates (IDs,
// tokens, order), the same assignment and the same line count — or the
// same error class when there are no messages.
func streamEqualsBatch(t *testing.T, opts Options, data []byte) {
	t.Helper()
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	p := New(opts)
	stream, serr := p.ParseStream(open, 0)
	msgs, err := core.ReadMessages(bytes.NewReader(data), 0)
	if err != nil {
		t.Fatal(err)
	}
	batch, berr := p.Parse(msgs)
	if serr != nil || berr != nil {
		if !errors.Is(serr, core.ErrNoMessages) || !errors.Is(berr, core.ErrNoMessages) {
			t.Fatalf("stream error %v, batch error %v", serr, berr)
		}
		return
	}
	if stream.Lines != len(msgs) {
		t.Fatalf("lines = %d, want %d", stream.Lines, len(msgs))
	}
	if !reflect.DeepEqual(stream.Templates, batch.Templates) {
		t.Fatalf("templates differ:\nstream %v\nbatch  %v", stream.Templates, batch.Templates)
	}
	for i, a := range stream.Assignment {
		if int(a) != batch.Assignment[i] {
			t.Fatalf("line %d: stream template %d, batch template %d", i+1, a, batch.Assignment[i])
		}
	}
}

// TestParseStreamMatchesInMemory holds the two callers of the one
// SLCT to the same output on every dataset at four sizes and two supports.
func TestParseStreamMatchesInMemory(t *testing.T) {
	for _, name := range gen.AllNames() {
		cat, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{256, 1024, 2000, 20000} {
			var buf bytes.Buffer
			if err := core.WriteMessages(&buf, cat.Generate(7, n)); err != nil {
				t.Fatal(err)
			}
			for _, frac := range []float64{0.005, 0.02} {
				t.Run(fmt.Sprintf("%s/%d/%v", name, n, frac), func(t *testing.T) {
					streamEqualsBatch(t, Options{SupportFrac: frac}, buf.Bytes())
				})
			}
		}
	}
}

// TestParseStreamOpensTwice: one open per pass, no third scan.
func TestParseStreamOpensTwice(t *testing.T) {
	data := []byte("alpha beta 1\nalpha beta 2\nalpha beta 3\n")
	opens := 0
	open := func() (io.ReadCloser, error) {
		opens++
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	if _, err := New(Options{Support: 2}).ParseStream(open, 0); err != nil {
		t.Fatal(err)
	}
	if opens != 2 {
		t.Errorf("source opened %d times, want 2", opens)
	}
}

// TestParseStreamSourceChangedBetweenPasses: a source that yields a
// different line count on its second open is an error, not a misaligned
// assignment.
func TestParseStreamSourceChangedBetweenPasses(t *testing.T) {
	data := []string{"alpha beta 1\nalpha beta 2\n", "alpha beta 1\n"}
	opens := 0
	open := func() (io.ReadCloser, error) {
		opens++
		return io.NopCloser(strings.NewReader(data[opens-1])), nil
	}
	if _, err := New(Options{Support: 2}).ParseStream(open, 0); err == nil {
		t.Error("a source that shrank between passes parsed without error")
	}
}

// TestParseStreamOversizedLine: a line beyond core.DefaultMaxLineBytes is
// truncated and parsed, as core.ReadMessages does, instead of failing the
// scan.
func TestParseStreamOversizedLine(t *testing.T) {
	streamEqualsBatch(t, Options{Support: 3}, oversizedInput())
}

// oversizedInput is one line just over core.DefaultMaxLineBytes followed by
// two recurring events.
func oversizedInput() []byte {
	var b bytes.Buffer
	b.WriteString(strings.Repeat("x", core.DefaultMaxLineBytes+6) + "\n")
	for i := 1; i <= 5; i++ {
		fmt.Fprintf(&b, "alpha beta %d\n", i)
	}
	for i := 1; i <= 20; i++ {
		fmt.Fprintf(&b, "gamma delta %d\n", i)
	}
	return b.Bytes()
}

// FuzzSLCTStreamEqualsBatch: on arbitrary bytes, the streaming parse
// equals the batch parse of the same file.
func FuzzSLCTStreamEqualsBatch(f *testing.F) {
	f.Add([]byte("a b 1\na b 2\na b 3\nc d\n"), uint8(0))
	f.Add([]byte("T1\ts1\tsend x\nT1\ts2\tsend y\nplain\ttab\there\nsend z\n"), uint8(1))
	f.Add([]byte("a b\r\na b\r\na c\r\n\r\n"), uint8(2))
	f.Add([]byte("a \x00 b\na b\na b\na\x00\n"), uint8(3))
	f.Add([]byte("   \n\t\n\n a  b \n a b\n"), uint8(0))
	f.Add(oversizedInput(), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, support uint8) {
		streamEqualsBatch(t, Options{Support: 2 + int(support%4)}, data)
	})
}

// TestParseStreamDeterministic: repeated parses hand out the same template
// IDs and assignment.
func TestParseStreamDeterministic(t *testing.T) {
	msgs := gen.HDFS().Generate(33, 5000)
	p := New(Options{Support: 10})
	first, err := p.ParseStream(memSource(t, msgs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Templates) < 5 {
		t.Fatalf("degenerate parse: %d templates", len(first.Templates))
	}
	for run := 0; run < 5; run++ {
		again, err := p.ParseStream(memSource(t, msgs), 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Templates, first.Templates) || !reflect.DeepEqual(again.Assignment, first.Assignment) {
			t.Fatalf("run %d handed out different templates or IDs:\n%v\n%v", run, again.Templates, first.Templates)
		}
	}
}

func TestParseStreamLossyFindsSameClusters(t *testing.T) {
	msgs := gen.HDFS().Generate(32, 8000)
	exact, err := New(Options{Support: 40}).ParseStream(memSource(t, msgs), 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := New(Options{Support: 40}).ParseStream(memSource(t, msgs), 0.0005)
	if err != nil {
		t.Fatal(err)
	}
	// With ε·N (=4) well under the support (40), the frequent vocabulary —
	// and so the cluster count — must match the exact run closely.
	diff := len(exact.Templates) - len(lossy.Templates)
	if diff < -2 || diff > 2 {
		t.Errorf("template counts diverge: exact %d vs lossy %d",
			len(exact.Templates), len(lossy.Templates))
	}
}

func TestParseStreamEmpty(t *testing.T) {
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(nil)), nil
	}
	if _, err := New(Options{}).ParseStream(open, 0); !errors.Is(err, core.ErrNoMessages) {
		t.Errorf("err = %v, want ErrNoMessages", err)
	}
}

func TestParseStreamOpenError(t *testing.T) {
	boom := errors.New("boom")
	open := func() (io.ReadCloser, error) { return nil, boom }
	if _, err := New(Options{}).ParseStream(open, 0); !errors.Is(err, boom) {
		t.Errorf("open error lost: %v", err)
	}
}

func TestParseStreamPlainLines(t *testing.T) {
	// Plain (unannotated) lines parse too.
	data := []byte("alpha beta 1\nalpha beta 2\nalpha beta 3\nalpha beta 4\n")
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	res, err := New(Options{Support: 3}).ParseStream(open, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 1 || res.Templates[0].String() != "alpha beta *" {
		t.Errorf("templates = %v", res.Templates)
	}
}
