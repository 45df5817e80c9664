package gen

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"logparse/internal/core"
	"logparse/internal/tokenize"
)

// seg is one segment of a spec token: either a literal string or a field.
type seg struct {
	lit   string
	field Field // 0 when the segment is a literal
}

// specToken is one whitespace-delimited position of a template
// specification. Placeholders may be embedded inside a token (real logs
// glue values to punctuation, e.g. "sessionid:<sess>" or "(HWID=<int>)"),
// so a token is a sequence of literal and field segments.
type specToken struct {
	segs []seg
}

// isField reports whether the token is exactly one variable field.
func (t specToken) isField() bool { return len(t.segs) == 1 && t.segs[0].field != 0 }

// hasField reports whether any segment of the token is variable.
func (t specToken) hasField() bool {
	for _, s := range t.segs {
		if s.field != 0 {
			return true
		}
	}
	return false
}

// Spec is a generative template: literal words interleaved with variable
// fields. Its DSL form writes fields as <name>, e.g.
//
//	Receiving block <blk> src: <ip> dest: <ip>
type Spec struct {
	// ID is the ground-truth event identifier, e.g. "HDFS-E5".
	ID     string
	tokens []specToken
}

// ParseSpec compiles a DSL template string.
func ParseSpec(id, dsl string) (Spec, error) {
	words := strings.Fields(dsl)
	if len(words) == 0 {
		return Spec{}, fmt.Errorf("gen: spec %s is empty", id)
	}
	s := Spec{ID: id, tokens: make([]specToken, 0, len(words))}
	for _, w := range words {
		tok, err := parseSpecToken(w)
		if err != nil {
			return Spec{}, fmt.Errorf("gen: spec %s: %w", id, err)
		}
		s.tokens = append(s.tokens, tok)
	}
	return s, nil
}

// parseSpecToken splits one word into literal and <field> segments.
func parseSpecToken(w string) (specToken, error) {
	var tok specToken
	for len(w) > 0 {
		open := strings.IndexByte(w, '<')
		if open < 0 {
			tok.segs = append(tok.segs, seg{lit: w})
			break
		}
		close := strings.IndexByte(w[open:], '>')
		if close < 0 {
			tok.segs = append(tok.segs, seg{lit: w})
			break
		}
		close += open
		if open > 0 {
			tok.segs = append(tok.segs, seg{lit: w[:open]})
		}
		name := w[open+1 : close]
		f, ok := fieldNames[name]
		if !ok {
			return specToken{}, fmt.Errorf("unknown field %q", name)
		}
		tok.segs = append(tok.segs, seg{field: f})
		w = w[close+1:]
	}
	return tok, nil
}

// MustSpec is ParseSpec for static catalogues; it panics on a malformed
// spec, which is a programming error in the catalogue literal.
func MustSpec(id, dsl string) Spec {
	s, err := ParseSpec(id, dsl)
	if err != nil {
		panic(err)
	}
	return s
}

// Render draws one concrete log message content from the spec.
func (s Spec) Render(rng *rand.Rand) string {
	return s.RenderWith(rng, nil)
}

// RenderWith renders the spec with fixed values for some field kinds: every
// occurrence of a kind present in overrides uses the given value instead of
// a random draw. The HDFS session generator uses this to keep one block ID
// consistent across a session's messages.
func (s Spec) RenderWith(rng *rand.Rand, overrides map[Field]string) string {
	var b strings.Builder
	for i, t := range s.tokens {
		if i > 0 {
			b.WriteByte(' ')
		}
		for _, sg := range t.segs {
			if sg.field == 0 {
				b.WriteString(sg.lit)
				continue
			}
			if v, ok := overrides[sg.field]; ok {
				b.WriteString(v)
			} else {
				b.WriteString(renderField(sg.field, rng))
			}
		}
	}
	return b.String()
}

// EventTemplate returns the ground-truth event string with every variable
// field masked by the wildcard, in the paper's notation. A token that mixes
// literal text with a glued field renders the field part as the wildcard
// (e.g. "sessionid:*").
func (s Spec) EventTemplate() string {
	parts := make([]string, len(s.tokens))
	for i, t := range s.tokens {
		var b strings.Builder
		for _, sg := range t.segs {
			if sg.field != 0 {
				b.WriteString(core.Wildcard)
				continue
			}
			b.WriteString(sg.lit)
		}
		parts[i] = b.String()
	}
	return strings.Join(parts, " ")
}

// MinTokens returns the minimum whitespace-token length of rendered
// messages. Standalone multi-word fields (exception strings) expand; glued
// fields never introduce whitespace.
func (s Spec) MinTokens() int {
	n := 0
	for _, t := range s.tokens {
		if t.isField() {
			n += fieldTokenLen(t.segs[0].field)
			continue
		}
		n++
	}
	return n
}

// Catalog is a complete dataset specification: a named collection of specs
// with Zipf-skewed popularity (spec order is popularity rank). A built-in
// catalogue is also its dataset's one row of settings — everything the
// experiments, the conformance suite and the facade know about the dataset;
// a catalogue made with NewCatalog leaves those fields zero.
type Catalog struct {
	// Name is the dataset name, e.g. "BGL".
	Name  string
	Specs []Spec

	// Paper is true for the paper's five datasets, the ones its tables
	// and figures sweep.
	Paper bool
	// FullSize is the dataset's line count in Table I (loghub's collection
	// size for the extended catalogues). Experiments scale it down; the
	// generator accepts any n.
	FullSize int
	// Rules are the §IV-B domain-knowledge preprocessing rules (Table II's
	// right-hand numbers); a dataset without rules has no preprocessed
	// column (Table II prints "-").
	Rules []tokenize.Rule
	// Header is the raw-line layout the facade renders and strips.
	Header Header
	// Tuned are the parser parameters tuned on a 2k sample, the protocol
	// of §IV-B/§IV-C (Finding 4 is about how expensive this step is).
	Tuned Tuned
	// Floors are the conformance floors per parser name: the measured
	// pairwise F-measure of each cell minus a safety margin.
	Floors map[string]float64

	specs func() []Spec // builds a built-in row's Specs on first lookup
	once  sync.Once
	cum   []float64 // cumulative sampling weights
}

// Tuned holds a dataset's tuned parser parameters.
type Tuned struct {
	SLCTSupportFrac float64
	LKESplitRatio   float64
	LogSigGroups    int
}

// Popularity skew: real system logs are dominated by a handful of events
// while most of the vocabulary is rare (a 400-line BGL sample exposes only
// ~60 of 376 events, a 40k sample ~206, §IV-C). A pure Zipf law cannot
// reproduce both ends, so popularity is piecewise: Zipf over the head ranks
// and a steeper power law over the tail.
const (
	zipfExponent     = 1.30
	zipfTailStart    = 96  // rank at which the steep tail begins
	zipfTailExponent = 4.5 // tail steepness
)

// specWeight is the unnormalised popularity of the spec at 1-based rank r.
func specWeight(r int) float64 {
	if r <= zipfTailStart {
		return 1.0 / math.Pow(float64(r), zipfExponent)
	}
	head := 1.0 / math.Pow(float64(zipfTailStart), zipfExponent)
	return head / math.Pow(float64(r)/float64(zipfTailStart), zipfTailExponent)
}

// NewCatalog builds a catalogue; specs must be non-empty with unique IDs.
func NewCatalog(name string, specs []Spec) (*Catalog, error) {
	c := &Catalog{Name: name, Specs: specs}
	if err := c.weigh(); err != nil {
		return nil, err
	}
	return c, nil
}

// weigh checks the specs and computes the cumulative sampling weights.
func (c *Catalog) weigh() error {
	if len(c.Specs) == 0 {
		return fmt.Errorf("gen: catalogue %s has no specs", c.Name)
	}
	seen := make(map[string]bool, len(c.Specs))
	for _, s := range c.Specs {
		if seen[s.ID] {
			return fmt.Errorf("gen: catalogue %s has duplicate spec ID %s", c.Name, s.ID)
		}
		seen[s.ID] = true
	}
	c.cum = make([]float64, len(c.Specs))
	total := 0.0
	for i := range c.Specs {
		total += specWeight(i + 1)
		c.cum[i] = total
	}
	return nil
}

// built returns a built-in row with its vocabulary built, building it on
// the first call (catalogues are immutable afterwards). A malformed
// built-in catalogue is a programming error and panics.
func (c *Catalog) built() *Catalog {
	c.once.Do(func() {
		c.Specs = c.specs()
		if err := c.weigh(); err != nil {
			panic(err)
		}
	})
	return c
}

// sample draws a spec index by Zipf popularity.
func (c *Catalog) sample(rng *rand.Rand) int {
	x := rng.Float64() * c.cum[len(c.cum)-1]
	return sort.SearchFloat64s(c.cum, x)
}

// Generate emits n log messages drawn from the catalogue. Generation is
// deterministic in (seed, n).
func (c *Catalog) Generate(seed int64, n int) []core.LogMessage {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]core.LogMessage, n)
	for i := 0; i < n; i++ {
		spec := c.Specs[c.sample(rng)]
		content := spec.Render(rng)
		msgs[i] = core.LogMessage{
			LineNo:  i + 1,
			Content: content,
			Tokens:  core.Tokenize(content),
			TruthID: spec.ID,
		}
	}
	return msgs
}

// NumEvents returns the size of the catalogue's event vocabulary.
func (c *Catalog) NumEvents() int { return len(c.Specs) }

// LengthRange reports the minimum and maximum token length over all specs.
func (c *Catalog) LengthRange() (minLen, maxLen int) {
	minLen, maxLen = math.MaxInt32, 0
	for _, s := range c.Specs {
		n := s.MinTokens()
		if n < minLen {
			minLen = n
		}
		if n > maxLen {
			maxLen = n
		}
	}
	return minLen, maxLen
}
