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
	"hash/maphash"
	"math"

	"logparse/internal/core"
	"logparse/internal/parsers/posting"
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

// smallLeaf is the group count up to which a leaf is scanned whole. A
// converged stream keeps every leaf below it (HDFS: 46 templates, no leaf
// over 8) and pays no hashing; a leaf that outgrows it — Thunderbird's
// 14-token firewall event founds ≈15 k groups in one leaf — switches to the
// posting index, so a line costs O(line), not O(groups in the leaf).
const smallLeaf = posting.Small

// node is one internal level of the fixed-depth tree. Leaves (nodes at the
// last routed level) hold group indices instead of children, and once they
// outgrow smallLeaf an index from hash(position, constant token) to the
// groups founded (or restored) with that token there.
type node struct {
	children map[string]*node
	groups   []int
	index    *posting.Index
}

var hashSeed = maphash.MakeSeed()

func posKey(i int, h uint64) uint64 { return h ^ uint64(i+1)*0x9E3779B97F4A7C15 }

// indexGroup indexes group gi under every constant of its template.
func indexGroup(x *posting.Index, gi int, tmpl []string) {
	for i, tok := range tmpl {
		if tok != core.Wildcard {
			x.Add(posKey(i, maphash.String(hashSeed, tok)), gi)
		}
	}
}

// StreamParser is the online Drain learner. It is not safe for concurrent
// use; the stream engine serialises access under its own lock.
type StreamParser struct {
	opts    Options
	levels  int           // token levels used for routing (Depth - 2)
	roots   map[int]*node // first level: token count
	tmpls   [][]string    // group templates in creation order
	maxLeaf int           // groups in the fullest leaf

	finder posting.Finder // scratch of the indexed lookup

	verified uint64 // exact template comparisons made, the work counter tests pin
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

// LargestLeaf reports the group count of the fullest leaf — the length of
// the scan a line would pay without the leaf index.
func (s *StreamParser) LargestLeaf() int { return s.maxLeaf }

// hasDigits reports whether the token contains an ASCII digit — the
// paper's heuristic for "probably a variable", routed through the wildcard
// edge so parameters do not explode the tree fan-out.
func hasDigits(tok []byte) bool {
	for _, c := range tok {
		if c >= '0' && c <= '9' {
			return true
		}
	}
	return false
}

// descend routes a line to its leaf, creating the edges it lacks.
func (s *StreamParser) descend(tokens [][]byte) *node {
	cur := s.roots[len(tokens)]
	if cur == nil {
		cur = &node{}
		s.roots[len(tokens)] = cur
	}
	for _, tok := range tokens[:min(s.levels, len(tokens))] {
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
	return cur
}

// LearnBytes consumes one tokenised line: it descends the tree, matches the
// line against the leaf's groups, and either updates the best group's
// template (wildcarding disagreeing positions) or creates a new group. It
// returns the group index (stable: the creation order never changes) and
// whether the template set changed (a new group, or a template losing
// constants). Tokens must be non-empty; the tokens' backing storage is not
// retained.
func (s *StreamParser) LearnBytes(tokens [][]byte) (idx int, changed bool) {
	leaf := s.descend(tokens)

	// need is the smallest count of agreeing positions the threshold accepts
	// (beyond the line length when it accepts none).
	need := len(tokens) + 1
	if t := s.opts.SimThreshold * float64(len(tokens)); t <= float64(len(tokens)) {
		need = int(math.Ceil(t))
	}
	cands := leaf.groups
	if leaf.index != nil {
		for i, tok := range tokens {
			s.finder.Probe(leaf.index, posKey(i, maphash.Bytes(hashSeed, tok)))
		}
		cands = s.finder.Candidates(leaf.index, need, len(s.tmpls))
	}

	// Best group by similarity, earliest group on ties. The running best
	// starts just under need: a group that cannot be accepted never matters.
	best, bestSame := -1, need-1
	s.verified += uint64(len(cands))
	for _, gi := range cands {
		same := 0
		for i, tok := range s.tmpls[gi] {
			if tok != core.Wildcard && tok == string(tokens[i]) {
				same++
			}
		}
		if same > bestSame || (same == bestSame && gi < best) {
			best, bestSame = gi, same
		}
	}
	if best >= 0 {
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
	return s.found(leaf, tmpl), true
}

// found appends a group to a leaf, indexing the leaf from its groups'
// current templates the moment it outgrows smallLeaf — the same entries a
// Restore of this state would make.
func (s *StreamParser) found(leaf *node, tmpl []string) int {
	idx := len(s.tmpls)
	s.tmpls = append(s.tmpls, tmpl)
	leaf.groups = append(leaf.groups, idx)
	s.maxLeaf = max(s.maxLeaf, len(leaf.groups))
	switch {
	case leaf.index != nil:
		indexGroup(leaf.index, idx, tmpl)
	case len(leaf.groups) > smallLeaf:
		leaf.index = posting.NewIndex()
		for _, gi := range leaf.groups {
			indexGroup(leaf.index, gi, s.tmpls[gi])
		}
	}
	return idx
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

// TemplateTokens returns group i's current template as a view into the
// learner: valid until the next LearnBytes or Restore, not to be modified.
func (s *StreamParser) TemplateTokens(i int) []string { return s.tmpls[i] }

// drainState is the serialised learner. Neither the tree nor the leaf
// indexes are stored: Restore's replay of the templates in creation order
// reconstructs them (see the invariant note there).
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
	ns := NewStream(s.opts)
	var (
		arena []byte
		buf   [][]byte
	)
	for i, toks := range st.Templates {
		if len(toks) == 0 {
			return fmt.Errorf("drain: snapshot template %d is empty", i)
		}
		// Replay the group creation. Edges are only ever created by group
		// creations, so re-inserting the final templates in creation order
		// recreates the tree exactly: at every routed position the template
		// either kept the token all members shared (which routed through the
		// same literal or, when digit-bearing or created at a full node,
		// wildcard edge) or became the wildcard (which means the members
		// reached the leaf through the wildcard edge). Child counts evolve
		// identically because the replay is chronological.
		arena, buf = core.PackTokens(toks, arena, buf)
		ns.found(ns.descend(buf), toks)
	}
	*s = *ns
	return nil
}

// Parser is the batch façade over the online learner.
type Parser struct {
	opts Options
}

// New returns a batch Drain parser.
func New(opts Options) *Parser { return &Parser{opts: opts.withDefaults()} }

// Name returns the algorithm name.
func (p *Parser) Name() string { return "Drain" }

// Parse learns the corpus line by line and reports the final templates with
// each message assigned to its group.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx is Parse under a context.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	return core.LearnCorpus(ctx, p.Name(), p.opts.Telemetry, NewStream(p.opts), msgs)
}
