// Package core defines the data model of the log-parsing toolkit: raw log
// messages, event templates, parse results, and the Parser interface that
// every algorithm in internal/parsers implements.
//
// The model follows Fig. 1 of He et al. (DSN 2016): a parser consumes a
// sequence of raw log messages and produces (a) a list of log events
// (templates with variable parts masked by "*") and (b) a structured log
// that maps every input line to one of those events.
package core

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Wildcard is the token used in templates to mark a variable position.
const Wildcard = "*"

// OutlierID is the assignment value for messages that a parser could not
// place into any generated template (SLCT's outlier cluster).
const OutlierID = -1

// ErrNoMessages is returned by parsers when invoked on an empty input.
var ErrNoMessages = errors.New("core: no log messages to parse")

// LogMessage is a single raw log line after header stripping: only the
// free-text message content takes part in parsing, per §IV-A of the paper.
type LogMessage struct {
	// LineNo is the 1-based position of the message in its source file.
	LineNo int
	// Content is the raw free-text message content.
	Content string
	// Tokens is Content split into whitespace-delimited words, possibly
	// rewritten by a preprocessor (internal/tokenize).
	Tokens []string
	// TruthID is the ground-truth template identifier when known (synthetic
	// datasets always carry one); empty otherwise.
	TruthID string
	// Session groups messages that belong to one logical unit of work, e.g.
	// the HDFS block ID. Empty when the dataset has no session notion.
	Session string
}

// Template is one extracted log event: a sequence of constant tokens with
// Wildcard marking variable positions.
type Template struct {
	// ID identifies the template within a ParseResult.
	ID string
	// Tokens is the token sequence of the event, e.g.
	// ["Receiving", "block", "*", "src:", "*", "dest:", "*"].
	Tokens []string
}

// String renders the template in the paper's event notation,
// e.g. "Receiving block * src: * dest: *".
func (t Template) String() string { return strings.Join(t.Tokens, " ") }

// NumWildcards reports how many positions of the template are variable.
func (t Template) NumWildcards() int {
	n := 0
	for _, tok := range t.Tokens {
		if tok == Wildcard {
			n++
		}
	}
	return n
}

// Matches reports whether the given token sequence is an instance of the
// template: same length and equal at every constant position.
func (t Template) Matches(tokens []string) bool {
	if len(tokens) != len(t.Tokens) {
		return false
	}
	for i, tok := range t.Tokens {
		if tok != Wildcard && tok != tokens[i] {
			return false
		}
	}
	return true
}

// ParseResult is the output of a Parser: the extracted templates and, for
// each input message, the index of the template it was assigned to
// (OutlierID when unassigned).
type ParseResult struct {
	Templates  []Template
	Assignment []int
}

// Validate checks structural invariants: every assignment is OutlierID or a
// valid template index.
func (r *ParseResult) Validate(numMessages int) error {
	if len(r.Assignment) != numMessages {
		return fmt.Errorf("core: result has %d assignments for %d messages", len(r.Assignment), numMessages)
	}
	for i, a := range r.Assignment {
		if a != OutlierID && (a < 0 || a >= len(r.Templates)) {
			return fmt.Errorf("core: assignment %d of message %d out of range [0,%d)", a, i, len(r.Templates))
		}
	}
	return nil
}

// EventCounts returns the number of messages assigned to each template, and
// the number of outliers.
func (r *ParseResult) EventCounts() (counts []int, outliers int) {
	counts = make([]int, len(r.Templates))
	for _, a := range r.Assignment {
		if a == OutlierID {
			outliers++
			continue
		}
		counts[a]++
	}
	return counts, outliers
}

// ClusterIDs returns, for each message, a string cluster label usable by the
// evaluation code: the template ID, or "<outlier:i>" making each outlier its
// own singleton cluster (the convention used when scoring SLCT, whose
// outlier bucket is not a semantic cluster).
func (r *ParseResult) ClusterIDs() []string {
	ids := make([]string, len(r.Assignment))
	for i, a := range r.Assignment {
		if a == OutlierID {
			ids[i] = fmt.Sprintf("<outlier:%d>", i)
			continue
		}
		ids[i] = r.Templates[a].ID
	}
	return ids
}

// Canonical returns a copy of r in canonical form: templates sorted by
// their rendered string (ties broken by original position), re-identified
// as "T1".."Tn", with assignments remapped accordingly. Two parses that
// extract the same template strings and cluster the messages identically
// have byte-identical canonical forms regardless of the order or naming
// their parser emitted — the form conformance digests and differential
// comparisons are computed over.
func (r *ParseResult) Canonical() *ParseResult {
	order := make([]int, len(r.Templates))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := r.Templates[order[a]].String(), r.Templates[order[b]].String()
		if sa != sb {
			return sa < sb
		}
		return order[a] < order[b]
	})
	remap := make([]int, len(r.Templates))
	out := &ParseResult{
		Templates:  make([]Template, len(r.Templates)),
		Assignment: make([]int, len(r.Assignment)),
	}
	for rank, orig := range order {
		remap[orig] = rank
		out.Templates[rank] = Template{
			ID:     fmt.Sprintf("T%d", rank+1),
			Tokens: append([]string(nil), r.Templates[orig].Tokens...),
		}
	}
	for i, a := range r.Assignment {
		if a == OutlierID {
			out.Assignment[i] = OutlierID
			continue
		}
		out.Assignment[i] = remap[a]
	}
	return out
}

// Parser is implemented by every log-parsing algorithm in the toolkit.
type Parser interface {
	// Name returns the algorithm's short name, e.g. "SLCT".
	Name() string
	// Parse extracts templates from the messages and assigns each message
	// to one. Implementations must not retain or mutate msgs. It is
	// equivalent to ParseCtx with a background context.
	Parse(msgs []LogMessage) (*ParseResult, error)
	// ParseCtx is Parse under a context: implementations check ctx inside
	// their hot loops (LKE's O(n²) clustering, LogSig's local search,
	// IPLoM's partitioning, SLCT's passes) and return ctx.Err() — possibly
	// wrapped — promptly after cancellation or deadline expiry. Algorithm
	// cost is wildly uneven across parsers (the paper's RQ2), so callers
	// serving live traffic must be able to bound every parse.
	ParseCtx(ctx context.Context, msgs []LogMessage) (*ParseResult, error)
}

// TemplateFromCluster derives a template from the token sequences of one
// cluster of messages: positions where all members agree keep the token,
// all other positions become Wildcard. Sequences of differing length are
// truncated to the shortest; if the cluster mixes lengths the template keeps
// the majority length and ignores minority-length members for the vote.
// This is the "log template generation" step shared by all four parsers.
func TemplateFromCluster(tokenSeqs [][]string) []string {
	if len(tokenSeqs) == 0 {
		return nil
	}
	// Majority length.
	lengths := make(map[int]int)
	for _, s := range tokenSeqs {
		lengths[len(s)]++
	}
	bestLen, bestCount := 0, 0
	for l, c := range lengths {
		if c > bestCount || (c == bestCount && l > bestLen) {
			bestLen, bestCount = l, c
		}
	}
	tmpl := make([]string, bestLen)
	for pos := 0; pos < bestLen; pos++ {
		first := ""
		constant := true
		seen := false
		for _, s := range tokenSeqs {
			if len(s) != bestLen {
				continue
			}
			if !seen {
				first, seen = s[pos], true
				continue
			}
			if s[pos] != first {
				constant = false
				break
			}
		}
		if constant && seen && first != "" {
			tmpl[pos] = first
		} else {
			tmpl[pos] = Wildcard
		}
	}
	return tmpl
}

// Tokenize splits message content into whitespace-delimited tokens. It is
// the toolkit's canonical tokenisation; preprocessors operate on its output.
func Tokenize(content string) []string { return strings.Fields(content) }

// Word-at-a-time (SWAR) constants: a byte repeated into all eight lanes.
const (
	lanes   = 0x0101010101010101
	highBit = 0x80 * lanes
)

// spaceLanes returns the bytes of w, eight bytes below 0x80 loaded
// little-endian, that strings.Fields treats as space ('\t'…'\r', ' ') as an
// 8-bit mask (bit k: byte k). Every lane sum stays below 0x100, so no carry
// crosses lanes and each test is exact: a lane of w^0x20 is zero iff adding
// 0x7f leaves its high bit clear, and a byte is in '\t'..'\r' iff adding
// 0x77 sets its high bit and adding 0x72 does not. The multiply gathers the
// eight high bits into the top byte.
func spaceLanes(w uint64) uint64 {
	eq := ^((w ^ 0x20*lanes) + 0x7f*lanes)
	in := (w + 0x77*lanes) &^ (w + 0x72*lanes)
	hits := (eq | in) & highBit >> 7 // one bit per space lane, at the lane's bottom
	return hits * 0x0102040810204080 >> 56
}

// TokenizeBytes is the allocation-free counterpart of Tokenize for the
// streaming hot path: it splits line around runs of Unicode whitespace
// exactly as strings.Fields does (byte-for-byte agreement is pinned by
// FuzzTokenizeBytesEquivalence) and appends the tokens into buf[:0],
// returning the extended slice. Tokens are subslices of line — they share
// its backing array and are valid only while line is; callers that reuse
// line buffers (pooled arenas, bufio views) must not retain the tokens
// across lines. Pass the previous return value back as buf to amortise the
// slice to zero allocations per call.
//
// The line is scanned up to 64 bytes at a time: each 8-byte word yields its
// space lanes (spaceLanes), the chunk's words one mask, and the token
// boundaries are the mask's 0↔1 edges, walked with TrailingZeros64. A
// chunk holding a byte ≥ 0x80, and a line shorter than a word, are scanned
// rune by rune instead, as strings.FieldsFunc(unicode.IsSpace) does.
func TokenizeBytes(line []byte, buf [][]byte) [][]byte {
	tokens := buf[:0]
	i, start := 0, -1 // start: the open token's first byte, or -1 between tokens
	if len(line) < 8 {
		i, start, tokens = tokenizeRunes(line, 0, len(line), start, tokens)
	}
	for i < len(line) {
		n := min(64, len(line)-i)
		var spaces, seen uint64
		for k := 0; k < n; k += 8 {
			// A last word of fewer than 8 bytes is the line's last 8,
			// shifted past the bytes already seen (NUL fills: not a space).
			w := binary.LittleEndian.Uint64(line[min(i+k, i+n-8):]) >> (8 * max(0, k+8-n))
			seen |= w
			spaces |= spaceLanes(w) << k
		}
		if seen&highBit != 0 {
			i, start, tokens = tokenizeRunes(line, i, i+n, start, tokens)
			continue
		}
		prev := uint64(start) >> 63 // the byte before the chunk as a space lane: 1 between tokens
		edges := spaces ^ (spaces<<1 | prev)
		if n < 64 {
			edges &= 1<<n - 1
		}
		for ; edges != 0; edges &= edges - 1 {
			if at := i + bits.TrailingZeros64(edges); start < 0 {
				start = at
			} else {
				tokens = append(tokens, line[start:at])
				start = -1
			}
		}
		i += n
	}
	if start >= 0 {
		tokens = append(tokens, line[start:])
	}
	return tokens
}

// tokenizeRunes is TokenizeBytes' per-rune scan of line[i:end], resumed
// with the open token's start; it returns where it stopped (at or past end,
// a rune may straddle it) and the updated start and tokens. An invalid
// sequence decodes to RuneError (size 1), which is not a space — identical
// to the string path.
func tokenizeRunes(line []byte, i, end, start int, tokens [][]byte) (int, int, [][]byte) {
	for i < end {
		r, size := rune(line[i]), 1
		if r >= utf8.RuneSelf {
			r, size = utf8.DecodeRune(line[i:])
		}
		if !unicode.IsSpace(r) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			tokens = append(tokens, line[start:i])
			start = -1
		}
		i += size
	}
	return i, start, tokens
}

// PackTokens is the bridge from string tokens to the [][]byte the online
// learners consume: it copies toks back to back into arena[:0] and appends
// one capacity-capped subslice per token to buf[:0]. Pass the previous
// return values back in to amortise both to zero allocations per call; the
// result is valid until the next call that reuses them.
func PackTokens(toks []string, arena []byte, buf [][]byte) ([]byte, [][]byte) {
	arena, buf = arena[:0], buf[:0]
	for _, t := range toks {
		arena = append(arena, t...)
	}
	rest := arena
	for _, t := range toks {
		buf, rest = append(buf, rest[:len(t):len(t)]), rest[len(t):]
	}
	return arena, buf
}

// Retokenize fills in msg.Tokens for every message that does not have them
// yet, returning the same slice for convenience.
func Retokenize(msgs []LogMessage) []LogMessage {
	for i := range msgs {
		if msgs[i].Tokens == nil {
			msgs[i].Tokens = Tokenize(msgs[i].Content)
		}
	}
	return msgs
}
