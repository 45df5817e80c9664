// Package iplom implements IPLoM — Iterative Partitioning Log Mining
// (Makanju, Zincir-Heywood, Milios; KDD 2009 / TKDE 2012). IPLoM partitions
// log lines hierarchically using heuristics designed around the structure
// of log messages: first by token count, then by the token position with
// the fewest unique words, then by searching for bijective relationships
// between the values of two chosen token positions. Each leaf partition
// yields one template.
//
// IPLoM relies on rules rather than generic data-mining models, which is
// exactly why the paper finds it both the fastest and, overall, the most
// accurate of the four parsers (Finding 1, Finding 3).
package iplom

import (
	"context"
	"fmt"
	"sort"

	"logparse/internal/core"
	"logparse/internal/telemetry"
)

// Options are IPLoM's thresholds, named after the original paper.
type Options struct {
	// FileSupport (FS ∈ [0,1]): partitions smaller than FS×totalLines are
	// sent to the outlier partition after each step. 0 disables pruning.
	FileSupport float64
	// PartitionSupport (PST ∈ [0,1]): children smaller than PST×parent are
	// merged into a leftover partition instead of standing alone.
	PartitionSupport float64
	// LowerBound and UpperBound steer the 1-M/M-1 split decision in step 3:
	// when the many-side's unique-value ratio is above UpperBound the side
	// is treated as variable; below LowerBound, as constants.
	LowerBound float64
	UpperBound float64
	// ClusterGoodness (CGT): partitions whose fraction of constant token
	// positions is at least CGT skip steps 2–3 and go straight to template
	// generation.
	ClusterGoodness float64
	// VariableRatio guards step 2 against splitting on variable positions:
	// a position whose unique-token count exceeds
	// VariableRatio×partitionSize is treated as carrying runtime values
	// (every line nearly distinct) and is never chosen as the split
	// position. Defaults to 0.5.
	VariableRatio float64
	// Telemetry, when non-nil, records per-stage spans (size partition,
	// recursive position/bijection partitioning, template generation) and
	// parse counters. Instrumentation is behavior-neutral and, when nil,
	// free.
	Telemetry *telemetry.Handle
	// MappingRatio bounds the positions eligible as step 3's mapping pair:
	// a position qualifies only when its unique-token count is at most
	// MappingRatio×partitionSize. Event-subtype vocabularies are small, so
	// the bound is much stricter than VariableRatio; without it, two
	// high-cardinality value columns with coincidentally equal
	// cardinalities (e.g. block IDs and file paths, which map 1-1) would be
	// selected as the "most frequent cardinality" pair and shatter the
	// partition into per-value fragments. Defaults to 0.05.
	MappingRatio float64
}

// DefaultOptions mirrors the defaults of the reference implementation.
func DefaultOptions() Options {
	return Options{
		FileSupport:      0,
		PartitionSupport: 0,
		LowerBound:       0.25,
		UpperBound:       0.9,
		ClusterGoodness:  0.575,
		VariableRatio:    0.5,
		MappingRatio:     0.05,
	}
}

// Parser is a configured IPLoM instance, stateless across Parse calls.
type Parser struct {
	opts Options
}

var _ core.Parser = (*Parser)(nil)

// New creates an IPLoM parser; zero-valued fields of opts fall back to
// DefaultOptions.
func New(opts Options) *Parser {
	def := DefaultOptions()
	if opts.LowerBound == 0 {
		opts.LowerBound = def.LowerBound
	}
	if opts.UpperBound == 0 {
		opts.UpperBound = def.UpperBound
	}
	if opts.ClusterGoodness == 0 {
		opts.ClusterGoodness = def.ClusterGoodness
	}
	if opts.VariableRatio == 0 {
		opts.VariableRatio = def.VariableRatio
	}
	if opts.MappingRatio == 0 {
		opts.MappingRatio = def.MappingRatio
	}
	return &Parser{opts: opts}
}

// Name implements core.Parser.
func (p *Parser) Name() string { return "IPLoM" }

// partition is a set of message indices that all share one token length.
type partition struct {
	length  int
	members []int
}

// Parse implements core.Parser.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser, checking ctx at every partition boundary
// of the hierarchical recursion (steps 1→2→3): each split call is O(partition
// size × token length), so partition boundaries bound cancellation latency.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	if len(msgs) == 0 {
		return nil, core.ErrNoMessages
	}
	sp := p.opts.Telemetry.StartParse(ctx, "iplom", len(msgs))
	defer sp.End()
	var outliers []int

	// Step 1: partition by event size (token count).
	stage := sp.Child("partition-size")
	byLen := make(map[int][]int)
	for i := range msgs {
		l := len(msgs[i].Tokens)
		byLen[l] = append(byLen[l], i)
	}
	lengths := make([]int, 0, len(byLen))
	for l := range byLen {
		lengths = append(lengths, l)
	}
	sort.Ints(lengths)
	stage.End()

	minSize := int(p.opts.FileSupport * float64(len(msgs)))
	stage = sp.Child("partition-recursive")
	var leaves []partition
	for _, l := range lengths {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("iplom: partitioning: %w", err)
		}
		part := partition{length: l, members: byLen[l]}
		if len(part.members) < minSize {
			outliers = append(outliers, part.members...)
			continue
		}
		if l == 0 || p.goodness(part, msgs) >= p.opts.ClusterGoodness {
			leaves = append(leaves, part)
			continue
		}
		// Step 2: partition by token position.
		for _, child := range p.splitByPosition(part, msgs) {
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("iplom: partitioning: %w", err)
			}
			if len(child.members) < minSize {
				outliers = append(outliers, child.members...)
				continue
			}
			if p.goodness(child, msgs) >= p.opts.ClusterGoodness {
				leaves = append(leaves, child)
				continue
			}
			// Step 3: partition by search for bijection.
			for _, leaf := range p.splitByBijection(child, msgs) {
				if len(leaf.members) < minSize {
					outliers = append(outliers, leaf.members...)
					continue
				}
				leaves = append(leaves, leaf)
			}
		}
	}
	stage.End()

	// Step 4: template generation.
	stage = sp.Child("templates")
	defer stage.End()
	res := &core.ParseResult{Assignment: make([]int, len(msgs))}
	for i := range res.Assignment {
		res.Assignment[i] = core.OutlierID
	}
	for idx, leaf := range leaves {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("iplom: template generation: %w", err)
		}
		seqs := make([][]string, len(leaf.members))
		for j, m := range leaf.members {
			seqs[j] = msgs[m].Tokens
		}
		res.Templates = append(res.Templates, core.Template{
			ID:     fmt.Sprintf("IPLoM-%d", idx+1),
			Tokens: core.TemplateFromCluster(seqs),
		})
		for _, m := range leaf.members {
			res.Assignment[m] = idx
		}
	}
	_ = outliers // outlier messages keep OutlierID
	return res, nil
}

// goodness is the cluster-goodness ratio: the fraction of token positions
// holding exactly one unique word.
func (p *Parser) goodness(part partition, msgs []core.LogMessage) float64 {
	if part.length == 0 {
		return 1
	}
	constant := 0
	for pos := 0; pos < part.length; pos++ {
		if uniqueAt(part, pos, msgs, 2) == 1 {
			constant++
		}
	}
	return float64(constant) / float64(part.length)
}

// uniqueAt counts unique tokens at a position, stopping early at limit when
// limit > 0 (goodness only needs to know "exactly one or more").
func uniqueAt(part partition, pos int, msgs []core.LogMessage, limit int) int {
	seen := make(map[string]struct{})
	for _, m := range part.members {
		seen[msgs[m].Tokens[pos]] = struct{}{}
		if limit > 0 && len(seen) >= limit {
			break
		}
	}
	return len(seen)
}

// splitByPosition implements step 2: split on the token position with the
// lowest cardinality of unique words. Children below the partition-support
// threshold are merged into one leftover partition.
func (p *Parser) splitByPosition(part partition, msgs []core.LogMessage) []partition {
	maxCard := p.maxSplitCardinality(len(part.members))
	bestPos, bestCard := -1, int(^uint(0)>>1)
	for pos := 0; pos < part.length; pos++ {
		card := uniqueAt(part, pos, msgs, 0)
		if card > 1 && card <= maxCard && card < bestCard {
			bestPos, bestCard = pos, card
		}
	}
	if bestPos < 0 {
		return []partition{part}
	}
	groups := make(map[string][]int, bestCard)
	order := make([]string, 0, bestCard)
	for _, m := range part.members {
		w := msgs[m].Tokens[bestPos]
		if _, ok := groups[w]; !ok {
			order = append(order, w)
		}
		groups[w] = append(groups[w], m)
	}
	sort.Strings(order)
	return p.applyPartitionSupport(part, groups, order)
}

// applyPartitionSupport turns value groups into child partitions, merging
// under-supported children into a single leftover partition.
func (p *Parser) applyPartitionSupport(part partition, groups map[string][]int, order []string) []partition {
	minChild := int(p.opts.PartitionSupport * float64(len(part.members)))
	var children []partition
	var leftover []int
	for _, w := range order {
		members := groups[w]
		if len(members) < minChild {
			leftover = append(leftover, members...)
			continue
		}
		children = append(children, partition{length: part.length, members: members})
	}
	if len(leftover) > 0 {
		children = append(children, partition{length: part.length, members: leftover})
	}
	return children
}

// splitByBijection implements step 3: choose the two token positions whose
// unique-word cardinality is the most common among non-constant positions,
// classify the relation between their values (1-1, 1-M, M-1, M-M), and
// split accordingly.
func (p *Parser) splitByBijection(part partition, msgs []core.LogMessage) []partition {
	if part.length < 2 || len(part.members) < 2 {
		return []partition{part}
	}
	p1, p2 := p.choosePositions(part, msgs)
	if p1 < 0 {
		return []partition{part}
	}
	// Value co-occurrence sets.
	s2 := make(map[string]map[string]struct{}) // value at p1 → values at p2
	s1 := make(map[string]map[string]struct{}) // value at p2 → values at p1
	for _, m := range part.members {
		v1, v2 := msgs[m].Tokens[p1], msgs[m].Tokens[p2]
		if s2[v1] == nil {
			s2[v1] = make(map[string]struct{})
		}
		if s1[v2] == nil {
			s1[v2] = make(map[string]struct{})
		}
		s2[v1][v2] = struct{}{}
		s1[v2][v1] = struct{}{}
	}
	groups := make(map[string][]int)
	var order []string
	add := func(key string, m int) {
		if _, ok := groups[key]; !ok {
			order = append(order, key)
		}
		groups[key] = append(groups[key], m)
	}
	lines1 := make(map[string]int) // lines per p1 value
	lines2 := make(map[string]int)
	for _, m := range part.members {
		lines1[msgs[m].Tokens[p1]]++
		lines2[msgs[m].Tokens[p2]]++
	}
	for _, m := range part.members {
		v1, v2 := msgs[m].Tokens[p1], msgs[m].Tokens[p2]
		n2, n1 := len(s2[v1]), len(s1[v2])
		switch {
		case n2 == 1 && n1 == 1: // 1-1
			add("11\x00"+v1, m)
		case n2 > 1 && n1 == 1: // 1-M (one p1 value, many p2 values)
			if p.manySideConstant(len(s2[v1]), lines1[v1]) {
				add("1Mc\x00"+v1+"\x00"+v2, m)
			} else {
				add("1M\x00"+v1, m)
			}
		case n2 == 1 && n1 > 1: // M-1
			if p.manySideConstant(len(s1[v2]), lines2[v2]) {
				add("M1c\x00"+v1+"\x00"+v2, m)
			} else {
				add("M1\x00"+v2, m)
			}
		default: // M-M: one shared partition
			add("MM", m)
		}
	}
	sort.Strings(order)
	ordered := make(map[string][]int, len(groups))
	for k, v := range groups {
		ordered[k] = v
	}
	return p.applyPartitionSupport(part, ordered, order)
}

// manySideConstant decides whether the "many" side of a 1-M/M-1 relation
// holds constant words (split on them) or variable values (collapse them):
// ratio of unique values to lines below LowerBound means few repeated
// words, i.e. constants.
func (p *Parser) manySideConstant(uniqueVals, lines int) bool {
	if lines == 0 {
		return false
	}
	ratio := float64(uniqueVals) / float64(lines)
	if ratio >= p.opts.UpperBound {
		return false
	}
	return ratio <= p.opts.LowerBound
}

// maxSplitCardinality is the VariableRatio guard: the largest unique-token
// count a position may have and still be used for splitting.
func (p *Parser) maxSplitCardinality(partitionSize int) int {
	m := int(p.opts.VariableRatio * float64(partitionSize))
	if m < 2 {
		m = 2
	}
	return m
}

// choosePositions picks step 3's two token positions: among non-constant
// positions, find the cardinality value occurring most often and return the
// first two positions carrying it (falling back to the next candidates in
// position order).
func (p *Parser) choosePositions(part partition, msgs []core.LogMessage) (int, int) {
	maxCard := int(p.opts.MappingRatio * float64(len(part.members)))
	if maxCard < 2 {
		maxCard = 2
	}
	type posCard struct{ pos, card int }
	var pcs []posCard
	cardFreq := make(map[int]int)
	for pos := 0; pos < part.length; pos++ {
		card := uniqueAt(part, pos, msgs, 0)
		if card > 1 && card <= maxCard {
			pcs = append(pcs, posCard{pos, card})
			cardFreq[card]++
		}
	}
	if len(pcs) < 2 {
		return -1, -1
	}
	sort.SliceStable(pcs, func(a, b int) bool {
		fa, fb := cardFreq[pcs[a].card], cardFreq[pcs[b].card]
		if fa != fb {
			return fa > fb
		}
		if pcs[a].card != pcs[b].card {
			return pcs[a].card < pcs[b].card
		}
		return pcs[a].pos < pcs[b].pos
	})
	return pcs[0].pos, pcs[1].pos
}
