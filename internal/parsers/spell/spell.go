// Package spell implements the Spell parser (Du & Li, ICDM 2016): streaming
// template extraction by longest common subsequence. Each learned object
// keeps a template; a new line joins the object whose constant tokens share
// the longest common subsequence with it, provided the LCS covers at least
// a Tau fraction of the line, and joining wildcards the positions that
// disagree. Objects here are bucketed by token count, keeping templates
// positional — the representation the rest of the toolkit (matcher trie,
// conformance canonicalisation, stream digests) is built on.
//
// A prefix-tree accelerator fronts the LCS scan: the current templates are
// kept in a match.Matcher trie, and a line positionally covered by an
// existing template short-circuits to that object without running any LCS —
// allocation-free, which is what keeps the stream engine's matched hot path
// at zero allocations per line. Only lines that change the template set
// reach the LCS search, which runs on interned token IDs: a bit-vector LCS
// length per same-length object the bucket's candidate index nominates, and
// an O(template) trie update per merge (DESIGN.md, "Spell slow path").
//
// Spell is naturally online: LearnBytes consumes one tokenised line with no
// retrain cycle, and the batch Parse/ParseCtx surface replays the corpus
// through a fresh learner, so streamed and batch runs agree by
// construction.
package spell

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"logparse/internal/core"
	"logparse/internal/match"
	"logparse/internal/parsers/posting"
	"logparse/internal/telemetry"
)

// DefaultTau is the minimum fraction of a line's tokens the LCS against an
// object's constants must cover for the line to join the object.
const DefaultTau = 0.5

// Options configures Spell. The zero value selects the defaults. Spell is
// deterministic: it consumes no random seed.
type Options struct {
	// Tau is the LCS acceptance threshold in (0,1]. 0 selects DefaultTau.
	Tau float64
	// Telemetry instruments parses when non-nil.
	Telemetry *telemetry.Handle
}

func (o Options) withDefaults() Options {
	if o.Tau <= 0 {
		o.Tau = DefaultTau
	}
	return o
}

// object is one learned LCS object: a positional template, the same template
// as interned token IDs (0 at wildcard positions) and the cached list of its
// constant (non-zero) IDs the LCS runs against.
type object struct {
	idx    int
	tokens []string
	ids    []uint32
	consts []uint32
}

func (o *object) refreshConsts() {
	o.consts = o.consts[:0]
	for _, id := range o.ids {
		if id != 0 {
			o.consts = append(o.consts, id)
		}
	}
}

// bucket holds the objects of one token count, by index in creation order,
// and once it outgrows posting.Small an index from constant ID to the objects
// founded (or restored) with that constant.
type bucket struct {
	objs  []int
	index *posting.Index
}

func indexObject(x *posting.Index, o *object) {
	for _, id := range o.consts {
		x.Add(uint64(id), o.idx)
	}
}

// StreamParser is the online Spell learner. It is not safe for concurrent
// use; the stream engine serialises access under its own lock.
type StreamParser struct {
	opts  Options
	objs  []*object
	byLen map[int]*bucket

	// intern maps a token to its ID (≥ 1; 0 means wildcard or unknown). Only
	// founding an object inserts, so it holds tokens that are or once were a
	// constant of some object; a line's tokens are only looked up. names is
	// the way back, ID to the one interned string every object holding that
	// constant shares. masks is the bit-vector kernel's table, one word per
	// ID: the positions of that ID in the line being scanned, all zero
	// between scans.
	intern map[string]uint32
	names  []string
	masks  []uint64

	// matcher is the prefix-tree accelerator over the current templates and
	// slotObj maps its slots back to object indices. Two objects can
	// converge onto one template string; the trie routes it to the earliest
	// and shadow lists the others.
	matcher *match.Matcher
	slotObj []int
	shadow  []int

	// Reusable slow-path scratch: the line as IDs, the indexed lookup's, and
	// the DP rows for lines of more than 64 tokens.
	lineIDs    []uint32
	finder     posting.Finder
	prev, curr []int

	verified uint64 // LCS kernel runs, the work counter tests pin
}

// NewStream returns an empty online learner.
func NewStream(opts Options) *StreamParser {
	s := &StreamParser{
		opts:   opts.withDefaults(),
		byLen:  make(map[int]*bucket),
		intern: make(map[string]uint32),
		names:  make([]string, 1),
		masks:  make([]uint64, 1),
	}
	s.rebuildMatcher()
	return s
}

// Name identifies the algorithm in checkpoints and telemetry.
func (s *StreamParser) Name() string { return "Spell" }

// NumTemplates reports the number of objects learned so far.
func (s *StreamParser) NumTemplates() int { return len(s.objs) }

// LearnBytes consumes one tokenised line: a positional template cover
// (through the trie accelerator) short-circuits to its object; otherwise
// the line joins the same-length object with the longest LCS against its
// constants when that LCS covers at least Tau of the line, wildcarding
// disagreeing positions, or founds a new object. Returns the object index
// (stable creation order) and whether the template set changed. Tokens
// must be non-empty; their backing storage is not retained.
func (s *StreamParser) LearnBytes(tokens [][]byte) (idx int, changed bool) {
	if mi, ok := s.matcher.MatchBytes(tokens); ok {
		return s.slotObj[mi], false
	}
	ids := s.lineIDs[:0]
	for _, t := range tokens {
		ids = append(ids, s.intern[string(t)])
	}
	s.lineIDs = ids
	if o := s.search(ids); o != nil {
		return o.idx, s.merge(o, ids)
	}
	toks := make([]string, len(tokens))
	for i, t := range tokens {
		if id := ids[i]; id != 0 {
			toks[i] = s.names[id] // already interned: no second copy of the bytes
		} else {
			toks[i] = string(t)
		}
	}
	o := s.add(toks)
	s.insertMatcher(o.idx)
	return o.idx, true
}

// search returns the same-length object with the longest LCS against the
// line, the earliest on ties, provided float64(LCS) ≥ Tau·n; nil otherwise.
// An LCS pairs line positions with equal constants of the object, so an
// object reaching need = ⌈Tau·n⌉ sits in the posting lists of at least need
// of the line's positions: an indexed bucket runs the kernel on those
// candidates only. Starting the running best one below need makes the
// acceptance test part of "longer", and skipping an object whose constant
// count cannot beat (or, for an earlier object, tie) the running best is
// exact: its LCS cannot exceed that count.
func (s *StreamParser) search(ids []uint32) (best *object) {
	n := len(ids)
	b := s.byLen[n]
	if b == nil {
		return nil
	}
	need := int(math.Ceil(s.opts.Tau * float64(n))) // ≥ 1: Tau > 0 and the bucket's objects have n ≥ 1 tokens
	cands := b.objs
	if b.index != nil {
		for _, id := range ids {
			if id != 0 {
				s.finder.Probe(b.index, uint64(id))
			}
		}
		cands = s.finder.Candidates(b.index, need, len(s.objs))
	}
	narrow := n <= 64
	if narrow {
		for i, id := range ids {
			s.masks[id] |= 1 << i // masks[0] collects the unknowns; no object reads it
		}
	}
	bestLen := need - 1
	for _, j := range cands {
		o := s.objs[j]
		if c := len(o.consts); c < bestLen || c == bestLen && (best == nil || o.idx > best.idx) {
			continue
		}
		s.verified++
		var l int
		if narrow {
			l = lcsBits(s.masks, o.consts)
		} else {
			l = s.lcsLen(ids, o.consts)
		}
		if l > bestLen || l == bestLen && best != nil && o.idx < best.idx {
			best, bestLen = o, l
		}
	}
	if narrow {
		for _, id := range ids {
			s.masks[id] = 0
		}
	}
	return best
}

// lcsBits is the Hyyrö / Allison–Dix bit-vector LCS length of a line of at
// most 64 tokens, given as per-ID position masks, against b: bit i of v is
// cleared when extending the match to line position i lengthens the LCS, so
// the zero bits count it. Bits at and above the line length stay set.
func lcsBits(masks []uint64, b []uint32) int {
	v := ^uint64(0)
	for _, id := range b {
		m := masks[id]
		u := v & m
		v = (v + u) | (v &^ m)
	}
	return bits.OnesCount64(^v)
}

// lcsLen computes the length of the longest common subsequence of a and b
// with two reusable DP rows, allocating only when a longer b arrives. ID 0
// (unknown) in a matches nothing: b holds constants only.
func (s *StreamParser) lcsLen(a, b []uint32) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	w := len(b) + 1
	if cap(s.prev) < w {
		s.prev = make([]int, w)
		s.curr = make([]int, w)
	}
	prev, curr := s.prev[:w], s.curr[:w]
	for j := range prev {
		prev[j] = 0
	}
	for i := 1; i <= len(a); i++ {
		curr[0] = 0
		for j := 1; j <= len(b); j++ {
			switch {
			case a[i-1] == b[j-1]:
				curr[j] = prev[j-1] + 1
			case prev[j] >= curr[j-1]:
				curr[j] = prev[j]
			default:
				curr[j] = curr[j-1]
			}
		}
		prev, curr = curr, prev
	}
	s.prev, s.curr = prev[:0], curr[:0]
	return prev[:w][len(b)]
}

// merge wildcards the positions of o that disagree with the line and moves
// o's path in the accelerator from the old template to the new one. A miss
// always changes o: a template that covered the line would have been a hit.
func (s *StreamParser) merge(o *object, ids []uint32) (changed bool) {
	old := slices.Clone(o.tokens)
	for i, id := range o.ids {
		if id != 0 && id != ids[i] {
			o.ids[i], o.tokens[i] = 0, core.Wildcard
			changed = true
		}
	}
	o.refreshConsts()
	// The incremental update is only right while o's old and new template
	// strings belong to o alone; where two objects share one, creation order
	// decides which the trie routes to — rebuild. (A shadowed object itself
	// never gets here: its earlier twin wins every tie in search.)
	shared := slices.ContainsFunc(s.shadow, func(k int) bool { return slices.Equal(s.objs[k].tokens, old) })
	if shared || !s.matcher.Remove(old) || !s.insertMatcher(o.idx) {
		s.rebuildMatcher()
	}
	return changed
}

// add appends an object with the given template (retained, its constants
// replaced by their interned strings), interning what is new, and indexes its
// bucket from the objects' current constants the moment it outgrows
// posting.Small — the same entries a Restore of this state would make. A
// literal "*" in a founding line is a wildcard from the start.
func (s *StreamParser) add(tokens []string) *object {
	o := &object{idx: len(s.objs), tokens: tokens, ids: make([]uint32, len(tokens)), consts: make([]uint32, 0, len(tokens))}
	for i, t := range tokens {
		if t == core.Wildcard {
			continue
		}
		id, ok := s.intern[t]
		if !ok {
			id = uint32(len(s.masks))
			s.intern[t] = id
			s.names = append(s.names, t)
			s.masks = append(s.masks, 0)
		}
		o.ids[i], tokens[i] = id, s.names[id]
	}
	o.refreshConsts()
	s.objs = append(s.objs, o)
	b := s.byLen[len(tokens)]
	if b == nil {
		b = &bucket{}
		s.byLen[len(tokens)] = b
	}
	b.objs = append(b.objs, o.idx)
	switch {
	case b.index != nil:
		indexObject(b.index, o)
	case len(b.objs) > posting.Small:
		b.index = posting.NewIndex()
		for _, j := range b.objs {
			indexObject(b.index, s.objs[j])
		}
	}
	return o
}

// insertMatcher extends the accelerator with object j's template in
// O(template length) — new objects are the common way the template set
// grows, and a full O(objects) rebuild per growth would make learning
// quadratic on high-cardinality streams. It reports false, and records j
// as shadowed, when an earlier object already holds that template. The
// template goes in without an ID: slotObj is the way back from a slot, and
// nothing reads a name out of the accelerator.
func (s *StreamParser) insertMatcher(j int) bool {
	if err := s.matcher.Insert(core.Template{Tokens: s.objs[j].tokens}); err != nil {
		s.shadow = append(s.shadow, j)
		return false
	}
	s.slotObj = append(s.slotObj, j)
	return true
}

// rebuildMatcher recompiles the accelerator trie from the current
// templates in creation order.
func (s *StreamParser) rebuildMatcher() {
	s.matcher, _ = match.New(nil) // an empty set has no duplicates to reject
	s.slotObj, s.shadow = s.slotObj[:0], s.shadow[:0]
	for j := range s.objs {
		s.insertMatcher(j)
	}
}

// Templates returns the learned templates in object-creation order; index i
// of LearnBytes addresses Templates()[i].
func (s *StreamParser) Templates() []core.Template {
	out := make([]core.Template, len(s.objs))
	for i, obj := range s.objs {
		out[i] = core.Template{
			ID:     fmt.Sprintf("L%d", i+1),
			Tokens: append([]string(nil), obj.tokens...),
		}
	}
	return out
}

// TemplateTokens returns object i's current template as a view into the
// learner: valid until the next LearnBytes or Restore, not to be modified.
func (s *StreamParser) TemplateTokens(i int) []string { return s.objs[i].tokens }

// spellState is the serialised learner. The templates alone determine every
// future decision (IDs, buckets and the accelerator are derived), so they
// are the whole state.
type spellState struct {
	spellParams
	Templates [][]string `json:"templates"`
}

// spellParams are the learner's parameters.
type spellParams struct {
	Tau float64 `json:"tau"`
}

// Snapshot serialises the learner for a checkpoint: json.Marshal of a
// spellState, written by core.MarshalSnapshot.
func (s *StreamParser) Snapshot() ([]byte, error) {
	tmpls := make([][]string, len(s.objs))
	for i, obj := range s.objs {
		tmpls[i] = obj.tokens
	}
	return core.MarshalSnapshot(spellParams{Tau: s.opts.Tau}, tmpls)
}

// Restore replaces the learner's state with a snapshot taken under the same
// Tau.
func (s *StreamParser) Restore(data []byte) error {
	var st spellState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("spell: decode snapshot: %w", err)
	}
	if st.Tau != s.opts.Tau {
		return fmt.Errorf("spell: snapshot tau %g differs from configured %g", st.Tau, s.opts.Tau)
	}
	ns := NewStream(s.opts)
	for i, toks := range st.Templates {
		if len(toks) == 0 {
			return fmt.Errorf("spell: snapshot template %d is empty", i)
		}
		ns.insertMatcher(ns.add(toks).idx)
	}
	*s = *ns
	return nil
}

// Parser is the batch façade over the online learner.
type Parser struct {
	opts Options
}

// New returns a batch Spell parser.
func New(opts Options) *Parser { return &Parser{opts: opts.withDefaults()} }

// Name returns the algorithm name.
func (p *Parser) Name() string { return "Spell" }

// Parse learns the corpus line by line and reports the final templates with
// each message assigned to its object.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx is Parse under a context.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	return core.LearnCorpus(ctx, p.Name(), p.opts.Telemetry, NewStream(p.opts), msgs)
}
