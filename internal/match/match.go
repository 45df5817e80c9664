// Package match applies an extracted template set to new log messages: the
// online half of the toolkit. Parsers mine templates from historical logs
// offline; production systems then need to map each incoming line to an
// event in O(line length), independent of template-set size. Matcher is a
// token trie with wildcard edges that does exactly that — the component a
// downstream log-mining deployment runs in its ingest path.
package match

import (
	"errors"
	"fmt"

	"logparse/internal/core"
)

// ErrNoMatch is returned by Match when no template covers the message.
var ErrNoMatch = errors.New("match: no template matches")

// ErrDuplicate is wrapped by New and Insert when a template's token
// sequence is already in the matcher.
var ErrDuplicate = errors.New("match: duplicate template")

// node is one trie level: exact-token edges plus an optional wildcard edge.
// The exact edges take the smallest form that holds them, so a template
// costs what it holds: a leaf has neither field set, exactly one exact child
// lives in soleKey/soleChild alone, and children exists iff there are two or
// more. step and unlink are the only writers and keep that shape.
type node struct {
	children map[string]*node
	wildcard *node
	// soleKey/soleChild are the exact edge of a node with exactly one child —
	// the overwhelmingly common shape once a walk is a few tokens deep. A
	// direct string comparison there skips the map hash entirely, and on the
	// byte path string(tok) == soleKey compiles without allocating.
	// soleChild == nil means "consult the map" (nil on a leaf: reads empty).
	soleKey   string
	soleChild *node
	// template is ≥0 when a template terminates at this node.
	template int
}

func newNode() *node { return &node{template: -1} }

// step follows the edge tok out of n — the one trie walk step New, Insert
// and Remove share. With grow a missing edge is created: a first exact child
// becomes the sole edge, a second promotes the sole edge into a fresh
// two-entry map, later ones join the map. Without grow a missing edge is nil.
func (n *node) step(tok string, grow bool) *node {
	if tok == core.Wildcard {
		if n.wildcard == nil && grow {
			n.wildcard = newNode()
		}
		return n.wildcard
	}
	if n.soleChild != nil && tok == n.soleKey {
		return n.soleChild
	}
	child := n.children[tok]
	if child != nil || !grow {
		return child
	}
	child = newNode()
	switch {
	case n.children != nil:
		n.children[tok] = child
	case n.soleChild == nil:
		n.soleKey, n.soleChild = tok, child
	default: // promote
		n.children = make(map[string]*node, 2)
		n.children[n.soleKey], n.children[tok] = n.soleChild, child
		n.soleKey, n.soleChild = "", nil
	}
	return child
}

// unlink drops the exact edge tok, which must exist. A fan-out falling to
// one demotes the map back to the sole edge.
func (n *node) unlink(tok string) {
	if n.soleChild != nil {
		n.soleKey, n.soleChild = "", nil
		return
	}
	delete(n.children, tok)
	if len(n.children) == 1 {
		for k, c := range n.children {
			n.soleKey, n.soleChild = k, c
		}
		n.children = nil
	}
}

func (n *node) empty() bool {
	return n.template < 0 && n.wildcard == nil && n.soleChild == nil && n.children == nil
}

// shortLen bounds the token counts whose trie roots sit in a fixed array,
// read without hashing; longer counts fall back to a map, so that a hostile
// long template cannot size the array.
const shortLen = 64

// Matcher matches token sequences against a template set.
type Matcher struct {
	// The trie roots by token length — templates only match equal length —
	// below shortLen in short and from there on in long.
	short [shortLen]*node
	long  map[int]*node
	// templates is indexed by slot: the build-order index the Match* family
	// returns. Remove retires a slot (zero Template) and never reuses it.
	templates []core.Template
	removed   int
}

// New builds a matcher from templates. Duplicate template token sequences
// are rejected with ErrDuplicate (they would make matches ambiguous).
func New(templates []core.Template) (*Matcher, error) {
	m := &Matcher{long: make(map[int]*node), templates: append([]core.Template(nil), templates...)}
	for slot, t := range templates {
		if err := m.terminate(t, slot); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// terminate threads t's path into the trie of its length and ends slot
// there. A duplicate finds its whole path in place, so the trie is unchanged
// when an error is returned.
func (m *Matcher) terminate(t core.Template, slot int) error {
	n := m.root(len(t.Tokens))
	if n == nil {
		n = newNode()
		m.setRoot(len(t.Tokens), n)
	}
	for _, tok := range t.Tokens {
		n = n.step(tok, true)
	}
	if n.template >= 0 {
		return fmt.Errorf("%w: %s and %s are identical",
			ErrDuplicate, m.templates[n.template].ID, t.ID)
	}
	n.template = slot
	return nil
}

// Insert adds one template to the matcher in O(template length) — the
// incremental twin of New, through the same walk, for online learners that
// grow their template set one group at a time and cannot afford an O(n)
// rebuild per growth. The template takes the next slot. Duplicate token
// sequences are rejected with ErrDuplicate like in New; the matcher is
// unchanged when an error is returned. Not safe for concurrent use with
// matching.
func (m *Matcher) Insert(t core.Template) error {
	if len(t.Tokens) == 0 {
		return fmt.Errorf("match: template %s has no tokens", t.ID)
	}
	if err := m.terminate(t, len(m.templates)); err != nil {
		return err
	}
	m.templates = append(m.templates, core.Template{
		ID:     t.ID,
		Tokens: append([]string(nil), t.Tokens...),
	})
	return nil
}

// Remove deletes the template with exactly these tokens in O(template
// length) and reports whether it was present; an absent template changes
// nothing. The trie is left exactly as New would build it from the remaining
// set: the terminal is cleared, nodes that no longer lead to any template
// are pruned, and a node whose fan-out drops to one holds that child as its
// sole edge again. The template's slot is retired, not reused: indices returned
// for the other templates stay valid, so after a removal they no longer
// address Templates(), which lists only the live templates. The stream
// engine keeps per-template state in a slice indexed by slot and therefore
// never calls Remove; it is for learners (Spell) that own the index
// mapping. Not safe for concurrent use with matching.
func (m *Matcher) Remove(tokens []string) bool {
	root := m.root(len(tokens))
	if root == nil || !m.remove(root, tokens) {
		return false
	}
	if root.empty() {
		m.setRoot(len(tokens), nil)
	}
	return true
}

// root returns the trie of templates with n tokens, nil when there is none.
func (m *Matcher) root(n int) *node {
	if n < shortLen {
		return m.short[n]
	}
	return m.long[n]
}

// setRoot installs r as the trie of n tokens; nil removes it.
func (m *Matcher) setRoot(n int, r *node) {
	switch {
	case n < shortLen:
		m.short[n] = r
	case r == nil:
		delete(m.long, n)
	default:
		m.long[n] = r
	}
}

func (m *Matcher) remove(n *node, tokens []string) bool {
	if len(tokens) == 0 {
		if n.template < 0 {
			return false
		}
		m.templates[n.template] = core.Template{}
		m.removed++
		n.template = -1
		return true
	}
	tok := tokens[0]
	child := n.step(tok, false)
	if child == nil || !m.remove(child, tokens[1:]) {
		return false
	}
	switch {
	case !child.empty():
	case tok == core.Wildcard:
		n.wildcard = nil
	default:
		n.unlink(tok)
	}
	return true
}

// FromResult builds a matcher from a parse result's templates.
func FromResult(res *core.ParseResult) (*Matcher, error) { return New(res.Templates) }

// NumTemplates reports the number of live templates.
func (m *Matcher) NumTemplates() int { return len(m.templates) - m.removed }

// Template returns the template in slot i (zero for a retired slot) as a
// read-only view: its tokens are the matcher's own.
func (m *Matcher) Template(i int) core.Template { return m.templates[i] }

// Templates returns a copy of the matcher's live templates in build order.
// Long-running services checkpoint this to rebuild an equivalent matcher
// after a restart.
func (m *Matcher) Templates() []core.Template {
	out := make([]core.Template, 0, m.NumTemplates())
	for _, t := range m.templates {
		if t.Tokens != nil || t.ID != "" { // not a retired slot
			out = append(out, core.Template{ID: t.ID, Tokens: append([]string(nil), t.Tokens...)})
		}
	}
	return out
}

// Match returns the template covering the token sequence. Exact-token edges
// are preferred over wildcard edges (a message matching both "a b" and
// "a *" maps to "a b"), matching the intuition that constants carry the
// event identity.
func (m *Matcher) Match(tokens []string) (core.Template, error) {
	idx, ok := lookup(m, tokens)
	if !ok {
		return core.Template{}, ErrNoMatch
	}
	return m.templates[idx], nil
}

// MatchIndex is Match returning the template's build-order index instead of
// the template itself, for callers that keep per-template state in a slice
// parallel to Templates() and must not allocate on the hot path.
func (m *Matcher) MatchIndex(tokens []string) (int, bool) { return lookup(m, tokens) }

// MatchBytes is MatchIndex over byte-slice tokens (core.TokenizeBytes
// output) without materialising strings — the streaming hot path, pinned
// allocation-free by TestMatchBytesZeroAllocs. ok=false means no template
// covers the sequence (the caller's slow path may then materialise strings
// for the retrain buffer).
func (m *Matcher) MatchBytes(tokens [][]byte) (int, bool) { return lookup(m, tokens) }

// lookup finds the build-order index of the template covering tokens:
// templates only match lines of their own length, so it picks the length's
// trie and walks it.
func lookup[T ~string | ~[]byte](m *Matcher, tokens []T) (int, bool) {
	root := m.root(len(tokens))
	if root == nil {
		return -1, false
	}
	idx := matchFrom(root, tokens)
	return idx, idx >= 0
}

// matchFrom is the one trie walk, over string or byte-slice tokens alike.
// It backtracks (exact edge first, then wildcard). Nodes without a wildcard
// edge need no backtrack frame, so the walk advances iteratively there and
// only recurses where a choice point exists. The trie is deduplicated, so
// backtracking touches each node at most once per position in the worst
// case. On byte tokens both the soleKey comparison and the map lookup
// convert the token in place — the compiler elides the []byte→string
// allocation for both forms.
func matchFrom[T ~string | ~[]byte](n *node, tokens []T) int {
	for len(tokens) > 0 {
		var child *node
		if n.soleChild != nil {
			if string(tokens[0]) == n.soleKey {
				child = n.soleChild
			}
		} else if c, ok := n.children[string(tokens[0])]; ok {
			child = c
		}
		if n.wildcard == nil {
			if child == nil {
				return -1
			}
			n = child
			tokens = tokens[1:]
			continue
		}
		if child != nil {
			if idx := matchFrom(child, tokens[1:]); idx >= 0 {
				return idx
			}
		}
		n = n.wildcard
		tokens = tokens[1:]
	}
	return n.template
}

// MatchContent tokenises content and matches it.
func (m *Matcher) MatchContent(content string) (core.Template, error) {
	return m.Match(core.Tokenize(content))
}

// Apply maps every message to a template, producing a ParseResult in the
// matcher's template space; unmatched messages become outliers.
func (m *Matcher) Apply(msgs []core.LogMessage) *core.ParseResult {
	tmpls := m.Templates()
	index := make(map[string]int, len(tmpls))
	for i, t := range tmpls {
		index[t.ID] = i
	}
	res := &core.ParseResult{Templates: tmpls, Assignment: make([]int, len(msgs))}
	for i := range msgs {
		tokens := msgs[i].Tokens
		if tokens == nil {
			tokens = core.Tokenize(msgs[i].Content)
		}
		t, err := m.Match(tokens)
		if err != nil {
			res.Assignment[i] = core.OutlierID
			continue
		}
		res.Assignment[i] = index[t.ID]
	}
	return res
}

// Parameters extracts the variable-position values of a message under its
// matched template — the runtime information of interest (§I: "the values
// of states and parameters").
func (m *Matcher) Parameters(tokens []string) (core.Template, []string, error) {
	t, err := m.Match(tokens)
	if err != nil {
		return core.Template{}, nil, err
	}
	var params []string
	for i, tok := range t.Tokens {
		if tok == core.Wildcard {
			params = append(params, tokens[i])
		}
	}
	return t, params, nil
}
