package slct

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"logparse/internal/core"
	"logparse/internal/freq"
)

// SLCT is the only studied parser whose algorithm streams naturally: both
// passes are single sequential scans and no pass needs the messages kept in
// memory. ParseStream exploits that for logs larger than RAM — the paper's
// full HDFS log is 11M lines — optionally with Manku–Motwani lossy counting
// to bound the pass-1 vocabulary (the original C tool's hash-space option
// played the same role).

// StreamOptions configures a streaming parse.
type StreamOptions struct {
	// Options are the regular SLCT parameters.
	Options
	// VocabEpsilon, when positive, bounds pass-1 memory with lossy
	// counting at the given error rate. Items may be undercounted by at
	// most ε·N, so supports within ε·N of the threshold can gain or lose
	// marginal words versus the exact run. 0 keeps exact counting.
	VocabEpsilon float64
}

// StreamResult is the outcome of a streaming parse. Assignments are
// returned as a compact slice parallel to the input line order.
type StreamResult struct {
	Templates  []core.Template
	Assignment []int32 // template index per line; -1 = outlier
	Lines      int
}

// ParseStream runs two-pass SLCT over a re-openable source. open is called
// twice (for pass 1 and pass 2); each reader sees the same lines. Lines are
// tokenised exactly like core.ReadMessages content (annotated dataset lines
// are understood and their content extracted).
func (p *Parser) ParseStream(open func() (io.ReadCloser, error), opts StreamOptions) (*StreamResult, error) {
	// Pass 1: (position, word) vocabulary.
	var exact map[posWord]int
	var lossy *freq.LossyCounter
	var err error
	if opts.VocabEpsilon > 0 {
		lossy, err = freq.NewLossyCounter(opts.VocabEpsilon)
		if err != nil {
			return nil, err
		}
	} else {
		exact = make(map[posWord]int)
	}
	lines := 0
	err = scanLines(open, func(tokens []string) {
		lines++
		for pos, w := range tokens {
			if lossy != nil {
				lossy.Add(pairKey(pos, w))
				continue
			}
			exact[posWord{pos, w}]++
		}
	})
	if err != nil {
		return nil, fmt.Errorf("slct: pass 1: %w", err)
	}
	if lines == 0 {
		return nil, core.ErrNoMessages
	}
	support := p.support(lines)
	frequent := make(map[posWord]bool)
	if lossy != nil {
		for key := range lossy.AtLeast(support) {
			pw, err := parsePairKey(key)
			if err != nil {
				return nil, err
			}
			frequent[pw] = true
		}
	} else {
		for pw, n := range exact {
			if n >= support {
				frequent[pw] = true
			}
		}
		exact = nil
	}

	// Pass 2a: candidate supports. Keys are built per line; only candidate
	// counters stay in memory.
	type candidate struct {
		pairs   []posWord
		support int
		// repLen is the first member's token count (template length; SLCT
		// cluster members share their frequent-pair profile and almost
		// always their length).
		repLen int
	}
	candidates := make(map[string]*candidate)
	var keyBuf strings.Builder
	lineKey := func(tokens []string) (string, []posWord) {
		keyBuf.Reset()
		var pairs []posWord
		for pos, w := range tokens {
			if frequent[posWord{pos, w}] {
				pairs = append(pairs, posWord{pos, w})
				keyBuf.WriteString(strconv.Itoa(pos))
				keyBuf.WriteByte('=')
				keyBuf.WriteString(w)
				keyBuf.WriteByte('\x00')
			}
		}
		return keyBuf.String(), pairs
	}
	err = scanLines(open, func(tokens []string) {
		key, pairs := lineKey(tokens)
		if key == "" {
			return
		}
		c, ok := candidates[key]
		if !ok {
			c = &candidate{pairs: pairs, repLen: len(tokens)}
			candidates[key] = c
		}
		c.support++
	})
	if err != nil {
		return nil, fmt.Errorf("slct: pass 2a: %w", err)
	}

	// Select clusters with enough support, in ParseCtx's deterministic
	// order, and build templates from the pair profiles.
	var selected []string
	for key, c := range candidates {
		if c.support >= support {
			selected = append(selected, key)
		}
	}
	sort.Slice(selected, func(a, b int) bool {
		ca, cb := candidates[selected[a]], candidates[selected[b]]
		if ca.support != cb.support {
			return ca.support > cb.support
		}
		return selected[a] < selected[b]
	})
	res := &StreamResult{Lines: lines}
	clusterOf := make(map[string]int32, len(selected))
	for _, key := range selected {
		c := candidates[key]
		tmpl := make([]string, c.repLen)
		for i := range tmpl {
			tmpl[i] = core.Wildcard
		}
		for _, pw := range c.pairs {
			if pw.pos < c.repLen {
				tmpl[pw.pos] = pw.word
			}
		}
		clusterOf[key] = int32(len(res.Templates))
		res.Templates = append(res.Templates, core.Template{
			ID:     fmt.Sprintf("SLCT-%d", len(res.Templates)+1),
			Tokens: tmpl,
		})
	}

	// Pass 2b (same scan, third sweep kept separate for clarity):
	// per-line assignment.
	res.Assignment = make([]int32, 0, lines)
	err = scanLines(open, func(tokens []string) {
		key, _ := lineKey(tokens)
		if idx, ok := clusterOf[key]; ok && key != "" {
			res.Assignment = append(res.Assignment, idx)
			return
		}
		res.Assignment = append(res.Assignment, int32(core.OutlierID))
	})
	if err != nil {
		return nil, fmt.Errorf("slct: pass 2b: %w", err)
	}
	return res, nil
}

// scanLines streams tokenised message content to fn. Annotated dataset
// lines ("truth<TAB>session<TAB>content") contribute only their content,
// under the same FormatAuto rule ReadMessagesOpts applies.
func scanLines(open func() (io.ReadCloser, error), fn func(tokens []string)) error {
	r, err := open()
	if err != nil {
		return err
	}
	defer r.Close()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		fn(core.Tokenize(core.ContentOf(line)))
	}
	return sc.Err()
}

// StreamParser adapts ParseStream to the core.Parser interface for bounded
// in-memory batches: the messages are serialised to the annotated line
// format and fed through the two-pass streaming parse. It exists so a
// degradation chain can reuse the streaming implementation — the cheapest,
// most predictable tier in the toolkit — as its retrain fallback.
type StreamParser struct {
	p    *Parser
	opts StreamOptions
}

var _ core.Parser = (*StreamParser)(nil)

// NewStreamParser builds the adapter.
func NewStreamParser(opts StreamOptions) *StreamParser {
	return &StreamParser{p: New(opts.Options), opts: opts}
}

// Name implements core.Parser.
func (s *StreamParser) Name() string { return "SLCT-stream" }

// Parse implements core.Parser.
func (s *StreamParser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return s.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser. The passes themselves are near-linear
// and bounded by the batch size, so a context check per pass boundary (via
// the serialised re-open) keeps cancellation latency low enough.
func (s *StreamParser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	if len(msgs) == 0 {
		return nil, core.ErrNoMessages
	}
	var buf bytes.Buffer
	if err := core.WriteMessages(&buf, msgs); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	open := func() (io.ReadCloser, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return io.NopCloser(bytes.NewReader(data)), nil
	}
	sr, err := s.p.ParseStream(open, s.opts)
	if err != nil {
		return nil, err
	}
	res := &core.ParseResult{
		Templates:  sr.Templates,
		Assignment: make([]int, len(sr.Assignment)),
	}
	for i, a := range sr.Assignment {
		res.Assignment[i] = int(a)
	}
	return res, nil
}

// pairKey serialises a posWord for the lossy counter.
func pairKey(pos int, word string) string {
	return strconv.Itoa(pos) + "\x00" + word
}

// parsePairKey inverts pairKey.
func parsePairKey(key string) (posWord, error) {
	i := strings.IndexByte(key, '\x00')
	if i < 0 {
		return posWord{}, fmt.Errorf("slct: malformed pair key %q", key)
	}
	pos, err := strconv.Atoi(key[:i])
	if err != nil {
		return posWord{}, fmt.Errorf("slct: malformed pair key %q: %w", key, err)
	}
	return posWord{pos: pos, word: key[i+1:]}, nil
}
