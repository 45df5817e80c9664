// Package slct implements SLCT — the Simple Logfile Clustering Tool of
// Vaarandi (IPOM 2003), the first automated log parser. SLCT is inspired by
// association-rule mining: it finds frequent (position, word) pairs in one
// pass, builds cluster candidates from the frequent pairs each line
// contains in a second pass, and keeps candidates with enough support as
// clusters. Lines whose candidate falls below support go to the outlier
// cluster.
package slct

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"logparse/internal/core"
	"logparse/internal/freq"
	"logparse/internal/telemetry"
)

// Options configures SLCT. The single important knob is the support
// threshold (the paper's Finding 4 tuning target for SLCT).
type Options struct {
	// Support is the absolute support threshold s: a (position, word) pair
	// is frequent, and a candidate becomes a cluster, when it occurs in at
	// least Support lines. When 0, SupportFrac applies.
	Support int
	// SupportFrac expresses support as a fraction of the input size; used
	// when Support is 0. Defaults to DefaultSupportFrac when both are 0.
	SupportFrac float64
	// Telemetry, when non-nil, records per-stage spans (vocab pass,
	// candidate pass, selection) and parse counters. Instrumentation is
	// behavior-neutral and, when nil, free.
	Telemetry *telemetry.Handle
}

// DefaultSupportFrac is the relative support used when Options is zero.
const DefaultSupportFrac = 0.005

// Parser is a configured SLCT instance. It is stateless across Parse calls
// and safe for concurrent use.
type Parser struct {
	opts Options
}

var _ core.Parser = (*Parser)(nil)

// New creates an SLCT parser.
func New(opts Options) *Parser { return &Parser{opts: opts} }

// Name implements core.Parser.
func (p *Parser) Name() string { return "SLCT" }

// support resolves the effective absolute support for n lines.
func (p *Parser) support(n int) int {
	if p.opts.Support > 0 {
		return p.opts.Support
	}
	frac := p.opts.SupportFrac
	if frac <= 0 {
		frac = DefaultSupportFrac
	}
	s := int(frac * float64(n))
	if s < 2 {
		s = 2
	}
	return s
}

// posWord is a (token position, word) pair, the item of SLCT's frequent-set
// mining.
type posWord struct {
	pos  int
	word string
}

// cancelCheckStride is how many messages each pass handles between context
// checks; cheap enough to keep cancellation latency low without measurable
// per-line overhead.
const cancelCheckStride = 4096

// Parse implements core.Parser.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser, checking ctx between passes and every
// cancelCheckStride lines within each pass.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	if len(msgs) == 0 {
		return nil, core.ErrNoMessages
	}
	templates, ids, err := p.parse(ctx, 0, func(fn func(tokens []string)) error {
		for i := range msgs {
			if i%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			fn(msgs[i].Tokens)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &core.ParseResult{Templates: templates, Assignment: make([]int, len(ids))}
	for i, id := range ids {
		res.Assignment[i] = int(id)
	}
	return res, nil
}

// candidate is a cluster candidate: the frequent pairs its lines contain,
// in position order and serialised as key, how many lines contain exactly
// those, and how many of the lines have each token count.
type candidate struct {
	key     string
	pairs   []posWord
	support int
	lengths map[int]int
}

// parse is SLCT's two passes over the lines each feeds, once per call, to
// fn. Pass 1 counts the (position, word) vocabulary — exactly, or with
// lossy counting at error rate epsilon when epsilon > 0. Pass 2 files each
// line under the candidate its frequent pairs form. The candidates with
// enough support become templates, most supported first (ties by key),
// and parse returns them with each line's template index (OutlierID when
// its candidate was not selected or it has none).
func (p *Parser) parse(ctx context.Context, epsilon float64, each func(fn func(tokens []string)) error) ([]core.Template, []int32, error) {
	sp := p.opts.Telemetry.StartParse(ctx, "slct", 0)
	defer sp.End()

	stage := sp.Child("vocab")
	vocab := make(map[posWord]int)
	var lossy *freq.LossyCounter[posWord]
	if epsilon > 0 {
		var err error
		if lossy, err = freq.NewLossyCounter[posWord](epsilon); err != nil {
			return nil, nil, err
		}
	}
	n := 0
	err := each(func(tokens []string) {
		n++
		for pos, w := range tokens {
			if lossy != nil {
				lossy.Add(posWord{pos, w})
			} else {
				vocab[posWord{pos, w}]++
			}
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("slct: pass 1: %w", err)
	}
	if n == 0 {
		return nil, nil, core.ErrNoMessages
	}
	sp.Lines(n)
	support := p.support(n)
	frequent := make(map[posWord]bool)
	if lossy != nil {
		for pw := range lossy.AtLeast(support) {
			frequent[pw] = true
		}
	}
	for pw, c := range vocab {
		if c >= support {
			frequent[pw] = true
		}
	}
	stage.End()

	stage = sp.Child("candidates")
	var cands []candidate
	index := make(map[string]int32)
	ids := make([]int32, 0, n)
	var pairs []posWord
	var key []byte
	err = each(func(tokens []string) {
		pairs, key = pairs[:0], key[:0]
		for pos, w := range tokens {
			if pw := (posWord{pos, w}); frequent[pw] {
				pairs = append(pairs, pw)
				key = strconv.AppendInt(key, int64(pos), 10)
				key = append(append(append(key, '='), w...), 0)
			}
		}
		if len(pairs) == 0 {
			ids = append(ids, core.OutlierID)
			return
		}
		id, ok := index[string(key)]
		if !ok {
			id = int32(len(cands))
			index[string(key)] = id
			cands = append(cands, candidate{key: string(key), pairs: slices.Clone(pairs), lengths: map[int]int{}})
		}
		cands[id].support++
		cands[id].lengths[len(tokens)]++
		ids = append(ids, id)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("slct: pass 2: %w", err)
	}
	if len(ids) != n {
		return nil, nil, fmt.Errorf("slct: pass 2 read %d lines, pass 1 read %d", len(ids), n)
	}
	stage.End()

	stage = sp.Child("templates")
	defer stage.End()
	var selected []int32
	for id := range cands {
		if cands[id].support >= support {
			selected = append(selected, int32(id))
		}
	}
	sort.Slice(selected, func(a, b int) bool {
		ca, cb := &cands[selected[a]], &cands[selected[b]]
		if ca.support != cb.support {
			return ca.support > cb.support
		}
		return ca.key < cb.key
	})
	rank := make([]int32, len(cands))
	for id := range rank {
		rank[id] = core.OutlierID
	}
	var templates []core.Template
	for r, id := range selected {
		rank[id] = int32(r)
		templates = append(templates, core.Template{
			ID:     fmt.Sprintf("SLCT-%d", r+1),
			Tokens: templateFor(cands[id].pairs, cands[id].lengths),
		})
	}
	for i, id := range ids {
		if id >= 0 {
			ids[i] = rank[id]
		}
	}
	return templates, ids, nil
}

// templateFor renders a cluster's template: the frequent word at frequent
// positions, the wildcard elsewhere, over the majority member length (the
// longer on a tie).
func templateFor(pairs []posWord, lengths map[int]int) []string {
	bestLen, bestCount := 0, 0
	for l, c := range lengths {
		if c > bestCount || (c == bestCount && l > bestLen) {
			bestLen, bestCount = l, c
		}
	}
	tmpl := make([]string, bestLen)
	for i := range tmpl {
		tmpl[i] = core.Wildcard
	}
	for _, pw := range pairs {
		if pw.pos < bestLen {
			tmpl[pw.pos] = pw.word
		}
	}
	return tmpl
}
