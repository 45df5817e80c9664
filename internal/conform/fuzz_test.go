package conform

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/parsers/iplom"
	"logparse/internal/parsers/lke"
	"logparse/internal/parsers/logsig"
	"logparse/internal/parsers/slct"
	"logparse/internal/tokenize"
)

// Native fuzz targets over the toolkit's input edges: tokenization, raw
// message reading, header stripping, and small end-to-end parses per
// algorithm. Seed corpora live under testdata/fuzz; scripts/verify.sh runs
// a short -fuzztime smoke pass over every target, and `go test` replays
// the committed corpus as ordinary regression tests.

// allRules is the union of the domain-knowledge preprocessing rules.
var allRules = []tokenize.Rule{
	tokenize.RuleIP, tokenize.RuleBlockID, tokenize.RuleCoreID, tokenize.RuleNumber,
}

// FuzzTokenize checks the canonical tokenizer and the preprocessing layer:
// no token may contain whitespace, re-tokenizing the joined tokens is
// idempotent, and rule rewriting preserves token count and is idempotent.
func FuzzTokenize(f *testing.F) {
	f.Add("Receiving block blk_123 src: /10.251.31.5:50010 dest: /10.251.31.5:50010")
	f.Add("  \t spaces\teverywhere \n and a core.2275 dump ")
	f.Add("")
	f.Add("héllo wörld \x00 null")
	for _, dataset := range gen.Names {
		cat, err := gen.ByName(dataset)
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range cat.Generate(1, 3) {
			f.Add(m.Content)
		}
	}
	pre := tokenize.NewPreprocessor(allRules...)
	f.Fuzz(func(t *testing.T, content string) {
		toks := core.Tokenize(content)
		for _, tok := range toks {
			if tok == "" || strings.ContainsAny(tok, " \t\n\v\f\r") {
				t.Fatalf("token %q contains whitespace or is empty", tok)
			}
		}
		again := core.Tokenize(strings.Join(toks, " "))
		if !reflect.DeepEqual(toks, again) {
			t.Fatalf("tokenize not idempotent: %q vs %q", toks, again)
		}
		msg := []core.LogMessage{{Content: content}}
		rewritten := pre.Apply(msg)
		if len(rewritten[0].Tokens) != len(toks) {
			t.Fatalf("preprocessing changed token count: %d vs %d", len(rewritten[0].Tokens), len(toks))
		}
		twice := pre.Apply(rewritten)
		if !reflect.DeepEqual(rewritten[0].Tokens, twice[0].Tokens) {
			t.Fatalf("preprocessing not idempotent: %q vs %q", rewritten[0].Tokens, twice[0].Tokens)
		}
	})
}

// FuzzReadMessages checks the hardened reader: lenient reads of arbitrary
// bytes must never fail, returned messages must be accounted for in the
// stats and NUL-free, and strict mode must never return more messages than
// lenient mode tolerated.
func FuzzReadMessages(f *testing.F) {
	f.Add([]byte("E1\tsess\tSimple annotated line\nplain line\n"))
	f.Add([]byte("a\tb\tc\td\te\n\x00broken\n" + strings.Repeat("x", 256)))
	f.Add([]byte("\n\n\r\n"))
	f.Add([]byte("no trailing newline"))
	f.Fuzz(func(t *testing.T, data []byte) {
		msgs, stats, err := core.ReadMessagesOpts(bytes.NewReader(data),
			core.ReadOptions{MaxLineBytes: 64})
		if err != nil {
			t.Fatalf("lenient read failed: %v", err)
		}
		if stats.Messages != len(msgs) {
			t.Fatalf("stats.Messages = %d, returned %d", stats.Messages, len(msgs))
		}
		for i, m := range msgs {
			if strings.IndexByte(m.Content, 0) >= 0 {
				t.Fatalf("message %d content carries a NUL byte", i)
			}
			if m.LineNo != i+1 {
				t.Fatalf("message %d has LineNo %d", i, m.LineNo)
			}
		}
		for _, format := range []core.Format{core.FormatPlain, core.FormatAnnotated} {
			if _, _, err := core.ReadMessagesOpts(bytes.NewReader(data),
				core.ReadOptions{Format: format, MaxLineBytes: 64}); err != nil {
				t.Fatalf("lenient read (format %d) failed: %v", format, err)
			}
		}
		strictMsgs, _, err := core.ReadMessagesOpts(bytes.NewReader(data),
			core.ReadOptions{MaxLineBytes: 64, Strict: true})
		if err == nil && len(strictMsgs) != len(msgs) {
			t.Fatalf("strict success returned %d messages, lenient %d", len(strictMsgs), len(msgs))
		}
	})
}

// FuzzHeaderDetect checks header stripping across every known per-dataset
// format: stripping never panics, always yields a substring of the line,
// and inverts rendering for space-normalized content.
func FuzzHeaderDetect(f *testing.F) {
	f.Add("081109 203615 148 INFO dfs.DataNode$PacketResponder: Received block blk_1 of size 91178 from /10.250.10.6")
	f.Add("- 1117838570 2005.06.03 R02-M1-N0-C:J12-U11 RAS KERNEL INFO instruction cache parity error corrected")
	f.Add("[10.30 16:49:06] open through proxy proxy.example.com:443 HTTPS")
	f.Add("short line")
	f.Add("")
	var cats []*gen.Catalog
	for _, dataset := range gen.Names {
		cat, err := gen.ByName(dataset)
		if err != nil {
			f.Fatal(err)
		}
		cats = append(cats, cat)
	}
	ts := time.Date(2016, 6, 28, 12, 0, 0, 0, time.UTC)
	f.Fuzz(func(t *testing.T, line string) {
		for _, cat := range cats {
			format := cat.Header
			stripped := format.Strip(line)
			if !strings.Contains(line, stripped) {
				t.Fatalf("%s: Strip result %q is not a substring of %q", cat.Name, stripped, line)
			}
			content := strings.Join(strings.Fields(line), " ")
			if content == "" {
				continue
			}
			rng := rand.New(rand.NewSource(1))
			rendered := format.Render(content, ts, rng)
			if got := format.Strip(rendered); got != content {
				t.Fatalf("%s: Strip(Render(%q)) = %q", cat.Name, content, got)
			}
		}
	})
}

// fuzzMessages turns fuzz input into a bounded message batch: one message
// per line, at most 48 lines of at most 200 bytes each (LKE's clustering
// is quadratic, so unbounded input would turn the fuzzer into a CPU
// benchmark).
func fuzzMessages(data string) []core.LogMessage {
	lines := strings.Split(data, "\n")
	if len(lines) > 48 {
		lines = lines[:48]
	}
	var msgs []core.LogMessage
	for _, line := range lines {
		if len(line) > 200 {
			line = line[:200]
		}
		msgs = append(msgs, core.LogMessage{
			LineNo:  len(msgs) + 1,
			Content: line,
			Tokens:  core.Tokenize(line),
		})
	}
	return msgs
}

// checkFuzzParse runs one parser twice over the batch and checks the
// universal parse contract: a result must validate structurally and the
// parse must be deterministic.
func checkFuzzParse(t *testing.T, mk func() core.Parser, msgs []core.LogMessage) {
	res, err := mk().Parse(msgs)
	if err != nil {
		return // rejecting odd input is allowed; crashing or lying is not
	}
	if verr := res.Validate(len(msgs)); verr != nil {
		t.Fatalf("accepted parse is structurally invalid: %v", verr)
	}
	again, err := mk().Parse(msgs)
	if err != nil {
		t.Fatalf("second parse of identical input failed: %v", err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("parse is nondeterministic across identical runs")
	}
	canon := res.Canonical()
	if verr := canon.Validate(len(msgs)); verr != nil {
		t.Fatalf("canonical form is structurally invalid: %v", verr)
	}
	if same, diff := SameClustering(res, canon); !same {
		t.Fatalf("canonicalization changed the clustering: %s", diff)
	}
}

// fuzzSeeds adds shared parse-fuzz seed inputs.
func fuzzSeeds(f *testing.F) {
	f.Add("alpha beta gamma\nalpha beta delta\nalpha beta gamma\nunrelated line")
	f.Add("x\n\nx\n  \nx y z")
	f.Add(strings.Repeat("same line again\n", 8))
	for _, dataset := range gen.Names {
		cat, err := gen.ByName(dataset)
		if err != nil {
			f.Fatal(err)
		}
		msgs := cat.Generate(2, 12)
		lines := make([]string, len(msgs))
		for i, m := range msgs {
			lines[i] = m.Content
		}
		f.Add(strings.Join(lines, "\n"))
	}
}

// FuzzParseSmallSLCT fuzzes SLCT end to end on small inputs.
func FuzzParseSmallSLCT(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		checkFuzzParse(t, func() core.Parser {
			return slct.New(slct.Options{Support: 2})
		}, fuzzMessages(data))
	})
}

// FuzzParseSmallIPLoM fuzzes IPLoM end to end on small inputs.
func FuzzParseSmallIPLoM(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		checkFuzzParse(t, func() core.Parser {
			return iplom.New(iplom.Options{})
		}, fuzzMessages(data))
	})
}

// FuzzParseSmallLKE fuzzes LKE end to end on small inputs (the batch cap
// keeps its Θ(n²) clustering cheap).
func FuzzParseSmallLKE(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		checkFuzzParse(t, func() core.Parser {
			return lke.New(lke.Options{Seed: 1})
		}, fuzzMessages(data))
	})
}

// FuzzParseSmallLogSig fuzzes LogSig end to end on small inputs, varying k
// with the input size.
func FuzzParseSmallLogSig(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data string) {
		msgs := fuzzMessages(data)
		k := 1 + len(msgs)%5
		checkFuzzParse(t, func() core.Parser {
			return logsig.New(logsig.Options{NumGroups: k, Seed: 1})
		}, msgs)
	})
}
