// Package drain implements the Drain parser (He et al., ICWS 2017): a
// fixed-depth prefix tree whose internal levels route a message by token
// count and its first tokens, and whose leaves hold log groups matched by a
// token-similarity threshold. Groups absorb new members by wildcarding the
// positions that disagree, so the template of a group only ever loses
// constants — template extraction is monotone under insertion.
//
// Drain is naturally online: LearnBytes consumes one tokenised line, finds
// or creates its group, and updates the template in place — no retrain
// cycle. The batch Parse/ParseCtx surface replays the corpus through a
// fresh learner, so a streamed learn-per-line run and a batch parse of the
// same input produce identical templates and assignments by construction.
//
// The matched hot path (a line landing in an existing group without
// changing its template) is allocation-free: the tree descent looks tokens
// up with zero-copy map conversions and the similarity scan compares byte
// slices against template strings in place. Allocation happens only when
// the template set actually changes.
package drain

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"logparse/internal/core"
	"logparse/internal/telemetry"
)

// Defaults mirror the reference implementation's common settings.
const (
	// DefaultDepth is the total tree depth in the paper's counting: root,
	// the token-count level, then Depth-2 token levels above the leaves.
	DefaultDepth = 4
	// DefaultSimThreshold is the minimum fraction of positions (over the
	// line length) where the group template carries the line's exact token.
	DefaultSimThreshold = 0.4
	// DefaultMaxChildren bounds the exact-token fan-out of each internal
	// node; overflow tokens route through the wildcard child.
	DefaultMaxChildren = 100
)

// Options configures Drain. The zero value selects the defaults above.
// Drain is deterministic: it consumes no random seed.
type Options struct {
	// Depth is the total tree depth (≥ 3); Depth-2 token levels are used
	// for routing. 0 selects DefaultDepth.
	Depth int
	// SimThreshold is the similarity a group must reach to absorb a line,
	// in (0,1]. 0 selects DefaultSimThreshold.
	SimThreshold float64
	// MaxChildren caps each internal node's exact-token children. 0 selects
	// DefaultMaxChildren.
	MaxChildren int
	// Telemetry instruments parses when non-nil.
	Telemetry *telemetry.Handle
}

// withDefaults normalises the options.
func (o Options) withDefaults() Options {
	if o.Depth <= 0 {
		o.Depth = DefaultDepth
	}
	if o.Depth < 3 {
		o.Depth = 3
	}
	if o.SimThreshold <= 0 {
		o.SimThreshold = DefaultSimThreshold
	}
	if o.MaxChildren <= 0 {
		o.MaxChildren = DefaultMaxChildren
	}
	return o
}

// node is one internal level of the fixed-depth tree. Leaves (nodes at the
// last routed level) hold group indices instead of children.
type node struct {
	children map[string]*node
	groups   []int
}

// StreamParser is the online Drain learner. It is not safe for concurrent
// use; the stream engine serialises access under its own lock.
type StreamParser struct {
	opts   Options
	levels int           // token levels used for routing (Depth - 2)
	roots  map[int]*node // first level: token count
	tmpls  [][]string    // group templates in creation order
}

// NewStream returns an empty online learner.
func NewStream(opts Options) *StreamParser {
	opts = opts.withDefaults()
	return &StreamParser{
		opts:   opts,
		levels: opts.Depth - 2,
		roots:  make(map[int]*node),
	}
}

// Name identifies the algorithm in checkpoints and telemetry.
func (s *StreamParser) Name() string { return "Drain" }

// NumTemplates reports the number of groups learned so far.
func (s *StreamParser) NumTemplates() int { return len(s.tmpls) }

// hasDigits reports whether the token contains an ASCII digit — the
// paper's heuristic for "probably a variable", routed through the wildcard
// edge so parameters do not explode the tree fan-out.
func hasDigits[T ~string | ~[]byte](tok T) bool {
	for i := 0; i < len(tok); i++ {
		if c := tok[i]; c >= '0' && c <= '9' {
			return true
		}
	}
	return false
}

// LearnBytes consumes one tokenised line: it descends the tree, matches the
// line against the leaf's groups, and either updates the best group's
// template (wildcarding disagreeing positions) or creates a new group. It
// returns the group index (stable: the creation order never changes) and
// whether the template set changed (a new group, or a template losing
// constants). Tokens must be non-empty; the tokens' backing storage is not
// retained.
func (s *StreamParser) LearnBytes(tokens [][]byte) (idx int, changed bool) {
	root := s.roots[len(tokens)]
	if root == nil {
		root = &node{}
		s.roots[len(tokens)] = root
	}
	levels := s.levels
	if levels > len(tokens) {
		levels = len(tokens)
	}
	cur := root
	for i := 0; i < levels; i++ {
		tok := tokens[i]
		key := core.Wildcard
		if !hasDigits(tok) {
			if child, ok := cur.children[string(tok)]; ok {
				cur = child
				continue
			}
			if len(cur.children) < s.opts.MaxChildren {
				key = string(tok)
			}
		}
		child, ok := cur.children[key]
		if !ok {
			child = &node{}
			if cur.children == nil {
				cur.children = make(map[string]*node)
			}
			cur.children[key] = child
		}
		cur = child
	}

	// Leaf: best group by similarity, earliest group on ties.
	best, bestSame := -1, -1
	for _, gi := range cur.groups {
		tmpl := s.tmpls[gi]
		same := 0
		for i, tok := range tmpl {
			if tok != core.Wildcard && tok == string(tokens[i]) {
				same++
			}
		}
		if same > bestSame {
			best, bestSame = gi, same
		}
	}
	if best >= 0 && float64(bestSame) >= s.opts.SimThreshold*float64(len(tokens)) {
		tmpl := s.tmpls[best]
		for i, tok := range tmpl {
			if tok != core.Wildcard && tok != string(tokens[i]) {
				tmpl[i] = core.Wildcard
				changed = true
			}
		}
		return best, changed
	}

	tmpl := make([]string, len(tokens))
	for i, tok := range tokens {
		tmpl[i] = string(tok)
	}
	idx = len(s.tmpls)
	s.tmpls = append(s.tmpls, tmpl)
	cur.groups = append(cur.groups, idx)
	return idx, true
}

// Templates returns the learned templates in group-creation order; index i
// of LearnBytes addresses Templates()[i].
func (s *StreamParser) Templates() []core.Template {
	out := make([]core.Template, len(s.tmpls))
	for i, toks := range s.tmpls {
		out[i] = core.Template{
			ID:     fmt.Sprintf("D%d", i+1),
			Tokens: append([]string(nil), toks...),
		}
	}
	return out
}

// drainState is the serialised learner. The tree is not stored: replaying
// the templates in creation order through insertTemplate reconstructs it
// exactly (see the invariant note on insertTemplate).
type drainState struct {
	Depth        int        `json:"depth"`
	SimThreshold float64    `json:"sim_threshold"`
	MaxChildren  int        `json:"max_children"`
	Templates    [][]string `json:"templates"`
}

// Snapshot serialises the learner for a checkpoint.
func (s *StreamParser) Snapshot() ([]byte, error) {
	return json.Marshal(drainState{
		Depth:        s.opts.Depth,
		SimThreshold: s.opts.SimThreshold,
		MaxChildren:  s.opts.MaxChildren,
		Templates:    s.tmpls,
	})
}

// Restore replaces the learner's state with a snapshot. The snapshot must
// have been taken with the same parameters — the tree shape depends on
// them, so a silent mismatch would corrupt future routing.
func (s *StreamParser) Restore(data []byte) error {
	var st drainState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("drain: decode snapshot: %w", err)
	}
	if st.Depth != s.opts.Depth || st.SimThreshold != s.opts.SimThreshold || st.MaxChildren != s.opts.MaxChildren {
		return fmt.Errorf("drain: snapshot parameters (depth=%d st=%g max=%d) differ from configuration (depth=%d st=%g max=%d)",
			st.Depth, st.SimThreshold, st.MaxChildren, s.opts.Depth, s.opts.SimThreshold, s.opts.MaxChildren)
	}
	s.roots = make(map[int]*node)
	s.tmpls = nil
	for i, toks := range st.Templates {
		if len(toks) == 0 {
			return fmt.Errorf("drain: snapshot template %d is empty", i)
		}
		s.insertTemplate(toks)
	}
	return nil
}

// insertTemplate replays one group creation. Edges are only ever created by
// group creations, so re-inserting the final templates in creation order
// recreates the tree exactly: at every routed position the template either
// kept the token all members shared (which routed through the same literal
// or, when digit-bearing or created at a full node, wildcard edge) or
// became the wildcard (which means the members reached the leaf through
// the wildcard edge). Child counts evolve identically because the replay
// is chronological.
func (s *StreamParser) insertTemplate(toks []string) {
	root := s.roots[len(toks)]
	if root == nil {
		root = &node{}
		s.roots[len(toks)] = root
	}
	levels := s.levels
	if levels > len(toks) {
		levels = len(toks)
	}
	cur := root
	for i := 0; i < levels; i++ {
		tok := toks[i]
		key := core.Wildcard
		if !hasDigits(tok) {
			if child, ok := cur.children[tok]; ok {
				cur = child
				continue
			}
			if len(cur.children) < s.opts.MaxChildren {
				key = tok
			}
		}
		child, ok := cur.children[key]
		if !ok {
			child = &node{}
			if cur.children == nil {
				cur.children = make(map[string]*node)
			}
			cur.children[key] = child
		}
		cur = child
	}
	idx := len(s.tmpls)
	s.tmpls = append(s.tmpls, append([]string(nil), toks...))
	cur.groups = append(cur.groups, idx)
}

// Parser is the batch façade over the online learner.
type Parser struct {
	opts Options
}

// New returns a batch Drain parser.
func New(opts Options) *Parser { return &Parser{opts: opts.withDefaults()} }

// Name returns the algorithm name.
func (p *Parser) Name() string { return "Drain" }

// cancelCheckStride bounds how many lines are learned between context
// checks; Drain is near-linear, so a coarse stride keeps overhead nil.
const cancelCheckStride = 4096

// Parse learns the corpus line by line and reports the final templates with
// each message assigned to its group.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx is Parse under a context.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	if len(msgs) == 0 {
		return nil, core.ErrNoMessages
	}
	tel := p.opts.Telemetry
	tel.Counter("parse.drain.calls").Inc()
	tel.Counter("parse.drain.lines").Add(uint64(len(msgs)))
	sp := tel.SpanFrom(ctx, "drain.parse")
	start := time.Now()
	defer func() {
		sp.End()
		tel.Histogram("parse.drain.seconds", telemetry.DurationBuckets).Observe(time.Since(start).Seconds())
	}()

	stage := sp.Child("learn")
	s := NewStream(p.opts)
	assign := make([]int, len(msgs))
	var buf [][]byte
	for i := range msgs {
		if i%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				stage.End()
				return nil, fmt.Errorf("drain: parse cancelled at line %d: %w", i, err)
			}
		}
		toks := msgs[i].Tokens
		if toks == nil {
			toks = core.Tokenize(msgs[i].Content)
		}
		if len(toks) == 0 {
			assign[i] = core.OutlierID
			continue
		}
		buf = buf[:0]
		for _, t := range toks {
			buf = append(buf, []byte(t))
		}
		assign[i], _ = s.LearnBytes(buf)
	}
	stage.End()

	stage = sp.Child("templates")
	res := &core.ParseResult{Templates: s.Templates(), Assignment: assign}
	stage.End()
	return res, nil
}
