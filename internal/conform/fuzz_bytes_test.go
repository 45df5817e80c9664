package conform

import (
	"bufio"
	"errors"
	"io"
	"strings"
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/match"
)

// FuzzTokenizeBytesEquivalence is the differential oracle for the
// zero-allocation byte ingest path: on arbitrary input — NUL bytes,
// invalid UTF-8, Unicode spaces, multi-space runs, tab-annotated lines,
// lines longer than the read cap — the byte-slice primitives must agree
// exactly with the string primitives they shadow:
//
//   - core.TokenizeBytes == core.Tokenize (token for token)
//   - core.ContentOfBytes == core.ContentOf
//   - match.MatchBytes == match.Match == match.MatchIndex on a template
//     derived from the line's own shape
//   - core.ReadLineInto yields identical lines, truncation flags and
//     errors regardless of the bufio buffer size (the fast single-view
//     path vs the slow accumulate-across-refills path)
//
// The stream engine substitutes the left column for the right on every
// ingested line, so any divergence here is a silent digest change.
func FuzzTokenizeBytesEquivalence(f *testing.F) {
	f.Add("Receiving block blk_123 src: /10.251.31.5:50010 dest: /10.251.31.5:50010")
	f.Add("T1\ts-4\tsession 99 closed after 3 ms")
	f.Add("null \x00 byte and\ttabs  double  spaces ")
	f.Add("héllo nbsp wörld  line-sep \xff\xfe invalid utf8")
	f.Add("line one\r\nline two\na much longer third line that exceeds tiny caps\n")
	f.Add("")
	for _, dataset := range gen.Names {
		cat, err := gen.ByName(dataset)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range cat.Generate(2, 5) {
			f.Add(m.Content)
		}
	}
	f.Fuzz(func(t *testing.T, content string) {
		line := []byte(content)

		want := core.Tokenize(content)
		got := core.TokenizeBytes(line, nil)
		if len(got) != len(want) {
			t.Fatalf("TokenizeBytes: %d tokens, Tokenize: %d (%q)", len(got), len(want), content)
		}
		for i := range want {
			if string(got[i]) != want[i] {
				t.Fatalf("token %d: TokenizeBytes %q, Tokenize %q (%q)", i, got[i], want[i], content)
			}
		}
		// A recycled buffer must not change the result.
		again := core.TokenizeBytes(line, got)
		if len(again) != len(want) {
			t.Fatalf("recycled buffer changed token count: %d vs %d", len(again), len(want))
		}

		if wc, gc := core.ContentOf(content), core.ContentOfBytes(line); wc != string(gc) {
			t.Fatalf("ContentOfBytes %q, ContentOf %q (%q)", gc, wc, content)
		}

		// Matcher agreement on a template derived from the line's own
		// shape: every odd position wildcarded, so the walk exercises both
		// exact and wildcard edges.
		if len(want) > 0 {
			tmpl := append([]string(nil), want...)
			for i := 1; i < len(tmpl); i += 2 {
				tmpl[i] = core.Wildcard
			}
			m, err := match.New([]core.Template{{ID: "F", Tokens: tmpl}})
			if err != nil {
				t.Fatalf("match.New: %v", err)
			}
			_, serr := m.Match(want)
			sIdx, sOK := m.MatchIndex(want)
			bIdx, bOK := m.MatchBytes(again)
			if bOK != (serr == nil) || bOK != sOK || bIdx != sIdx {
				t.Fatalf("byte/string match disagree: bytes=(%d,%v) index=(%d,%v) err=%v (%q)",
					bIdx, bOK, sIdx, sOK, serr, content)
			}
			if !bOK {
				t.Fatalf("line does not match its own shape template (%q)", content)
			}
		}

		// ReadLineInto must be byte-identical across buffer sizes: a tiny
		// reader forces the accumulate-across-refills slow path, the large
		// one stays on the single-view fast path.
		for _, max := range []int{8, 4096} {
			readAll := func(bufSize int) (lines []string, over []bool, errs []error) {
				br := bufio.NewReaderSize(strings.NewReader(content), bufSize)
				var scratch []byte
				for {
					l, o, err := core.ReadLineInto(br, &scratch, max)
					lines = append(lines, string(l))
					over = append(over, o)
					if err != nil {
						errs = append(errs, err)
						return
					}
				}
			}
			sl, so, se := readAll(16)
			fl, fo, fe := readAll(1 << 16)
			if len(sl) != len(fl) || len(se) != len(fe) {
				t.Fatalf("max=%d: slow path read %d lines, fast %d (%q)", max, len(sl), len(fl), content)
			}
			for i := range sl {
				if sl[i] != fl[i] || so[i] != fo[i] {
					t.Fatalf("max=%d line %d: slow (%q,%v) vs fast (%q,%v) (%q)",
						max, i, sl[i], so[i], fl[i], fo[i], content)
				}
			}
			for i := range se {
				if (se[i] == nil) != (fe[i] == nil) || (se[i] != nil && se[i].Error() != fe[i].Error()) {
					t.Fatalf("max=%d: slow err %v vs fast err %v (%q)", max, se[i], fe[i], content)
				}
			}
			if n := len(se); n == 0 || !errors.Is(se[n-1], io.EOF) {
				t.Fatalf("max=%d: stream did not end in EOF: %v", max, se)
			}
		}
	})
}
