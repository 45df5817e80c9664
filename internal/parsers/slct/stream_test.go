package slct

import (
	"bytes"
	"errors"
	"io"
	"reflect"
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

func TestParseStreamMatchesInMemory(t *testing.T) {
	msgs := gen.HDFS().Generate(31, 5000)
	p := New(Options{Support: 25})
	inMem, err := p.Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := p.ParseStream(memSource(t, msgs), StreamOptions{Options: Options{Support: 25}})
	if err != nil {
		t.Fatal(err)
	}
	if stream.Lines != len(msgs) {
		t.Fatalf("lines = %d, want %d", stream.Lines, len(msgs))
	}
	if len(stream.Templates) != len(inMem.Templates) {
		t.Fatalf("templates: stream %d vs in-memory %d", len(stream.Templates), len(inMem.Templates))
	}
	// Same clustering: messages share a stream cluster iff they share an
	// in-memory cluster.
	streamOf := map[int32]int{}
	for i := range msgs {
		s, m := stream.Assignment[i], inMem.Assignment[i]
		if (s == int32(core.OutlierID)) != (m == core.OutlierID) {
			t.Fatalf("line %d outlier status differs", i)
		}
		if s == int32(core.OutlierID) {
			continue
		}
		if prev, ok := streamOf[s]; ok {
			if prev != m {
				t.Fatalf("stream cluster %d maps to in-memory clusters %d and %d", s, prev, m)
			}
		} else {
			streamOf[s] = m
		}
	}
}

// TestParseStreamDeterministic: the selected clusters come out in ParseCtx's
// order — support descending, then pair key — so repeated parses hand out
// the same template IDs, and a line's cluster index is the in-memory one.
func TestParseStreamDeterministic(t *testing.T) {
	msgs := gen.HDFS().Generate(33, 5000)
	p := New(Options{Support: 10})
	opts := StreamOptions{Options: Options{Support: 10}}
	first, err := p.ParseStream(memSource(t, msgs), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Templates) < 5 {
		t.Fatalf("degenerate parse: %d templates", len(first.Templates))
	}
	for run := 0; run < 5; run++ {
		again, err := p.ParseStream(memSource(t, msgs), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again.Templates, first.Templates) || !reflect.DeepEqual(again.Assignment, first.Assignment) {
			t.Fatalf("run %d handed out different templates or IDs:\n%v\n%v", run, again.Templates, first.Templates)
		}
	}
	inMem, err := p.Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range first.Assignment {
		if int(a) != inMem.Assignment[i] {
			t.Fatalf("line %d: stream cluster %d, in-memory cluster %d", i, a, inMem.Assignment[i])
		}
	}
}

func TestParseStreamLossyFindsSameClusters(t *testing.T) {
	msgs := gen.HDFS().Generate(32, 8000)
	exact, err := New(Options{Support: 40}).ParseStream(memSource(t, msgs),
		StreamOptions{Options: Options{Support: 40}})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := New(Options{Support: 40}).ParseStream(memSource(t, msgs),
		StreamOptions{Options: Options{Support: 40}, VocabEpsilon: 0.0005})
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
	if _, err := New(Options{}).ParseStream(open, StreamOptions{}); !errors.Is(err, core.ErrNoMessages) {
		t.Errorf("err = %v, want ErrNoMessages", err)
	}
}

func TestParseStreamOpenError(t *testing.T) {
	boom := errors.New("boom")
	open := func() (io.ReadCloser, error) { return nil, boom }
	if _, err := New(Options{}).ParseStream(open, StreamOptions{}); !errors.Is(err, boom) {
		t.Errorf("open error lost: %v", err)
	}
}

func TestParseStreamPlainLines(t *testing.T) {
	// Plain (unannotated) lines parse too.
	data := []byte("alpha beta 1\nalpha beta 2\nalpha beta 3\nalpha beta 4\n")
	open := func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	res, err := New(Options{Support: 3}).ParseStream(open, StreamOptions{Options: Options{Support: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 1 || res.Templates[0].String() != "alpha beta *" {
		t.Errorf("templates = %v", res.Templates)
	}
}
