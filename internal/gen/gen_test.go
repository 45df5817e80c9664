package gen

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"logparse/internal/core"
)

func TestParseSpec(t *testing.T) {
	s, err := ParseSpec("T1", "Receiving block <blk> src: <ip>")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EventTemplate(); got != "Receiving block * src: *" {
		t.Errorf("EventTemplate = %q", got)
	}
	if got := s.MinTokens(); got != 5 {
		t.Errorf("MinTokens = %d, want 5", got)
	}
}

func TestParseSpecEmbeddedFields(t *testing.T) {
	s, err := ParseSpec("T2", "session sessionid:<sess> cxid:<hex> (HWID=<int>)")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EventTemplate(); got != "session sessionid:* cxid:* (HWID=*)" {
		t.Errorf("EventTemplate = %q", got)
	}
	rendered := s.Render(rand.New(rand.NewSource(1)))
	if !strings.HasPrefix(rendered, "session sessionid:0x") {
		t.Errorf("rendered = %q", rendered)
	}
	if got := len(core.Tokenize(rendered)); got != 4 {
		t.Errorf("rendered token count = %d, want 4", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	if _, err := ParseSpec("bad", "hello <nosuchfield>"); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ParseSpec("empty", "   "); err == nil {
		t.Error("empty spec accepted")
	}
}

func TestSpecRenderDeterministic(t *testing.T) {
	s := MustSpec("T", "event <int> at <hex> on <node>")
	a := s.Render(rand.New(rand.NewSource(7)))
	b := s.Render(rand.New(rand.NewSource(7)))
	if a != b {
		t.Errorf("same seed produced %q and %q", a, b)
	}
}

func TestRenderWithOverrides(t *testing.T) {
	s := MustSpec("T", "block <blk> to <blk> size <int>")
	out := s.RenderWith(rand.New(rand.NewSource(1)), map[Field]string{FieldBlockID: "blk_X"})
	toks := core.Tokenize(out)
	if toks[1] != "blk_X" || toks[3] != "blk_X" {
		t.Errorf("override not applied to all occurrences: %q", out)
	}
}

func TestCatalogDuplicateIDRejected(t *testing.T) {
	specs := []Spec{MustSpec("A", "x"), MustSpec("A", "y")}
	if _, err := NewCatalog("dup", specs); err == nil {
		t.Error("duplicate spec ID accepted")
	}
	if _, err := NewCatalog("empty", nil); err == nil {
		t.Error("empty catalogue accepted")
	}
}

func TestCatalogGenerateDeterministic(t *testing.T) {
	c := HDFS()
	a := c.Generate(99, 500)
	b := c.Generate(99, 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("generation not deterministic in seed")
	}
	differentSeed := c.Generate(100, 500)
	same := true
	for i := range a {
		if a[i].Content != differentSeed[i].Content {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical logs")
	}
}

func TestTableIEventCounts(t *testing.T) {
	wantEvents := map[string]int{
		"BGL": 376, "HPC": 105, "Proxifier": 8, "HDFS": 29, "Zookeeper": 80,
	}
	for name, want := range wantEvents {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.NumEvents(); got != want {
			t.Errorf("%s has %d events, want %d (Table I)", name, got, want)
		}
	}
}

func TestTableILengthRanges(t *testing.T) {
	// Table I maxima; minima in the paper include header fields our
	// message-content generators omit, so only the maxima are asserted
	// tightly.
	maxLen := map[string]int{
		"BGL": 102, "HPC": 104, "Proxifier": 27, "HDFS": 29, "Zookeeper": 27,
	}
	for name, wantMax := range maxLen {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi := c.LengthRange()
		if lo < 1 || hi > wantMax {
			t.Errorf("%s length range [%d,%d] outside Table I bound (max %d)", name, lo, hi, wantMax)
		}
	}
}

func TestGeneratedMessagesMatchTheirSpec(t *testing.T) {
	// Property: every generated message's ground-truth template matches
	// its token sequence modulo wildcards (for specs without multi-token
	// fields, lengths must agree exactly).
	for _, name := range Names {
		c, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		byID := make(map[string]Spec)
		for _, s := range c.Specs {
			byID[s.ID] = s
		}
		for _, m := range c.Generate(3, 500) {
			spec, ok := byID[m.TruthID]
			if !ok {
				t.Fatalf("%s: message labelled with unknown spec %q", name, m.TruthID)
			}
			if got, want := len(m.Tokens), spec.MinTokens(); got < want {
				t.Errorf("%s/%s: rendered %d tokens, spec minimum %d", name, m.TruthID, got, want)
			}
		}
	}
}

func TestZipfSkewExposesFewEventsInSmallSamples(t *testing.T) {
	// §IV-C: a 400-line BGL sample exposes ~60 of 376 events, 40k ~206.
	c := BGL()
	small := DistinctEvents(c.Generate(1, 400))
	large := DistinctEvents(c.Generate(1, 40000))
	if small < 30 || small > 110 {
		t.Errorf("BGL@400 distinct events = %d, want ≈60", small)
	}
	if large < 150 || large > 320 {
		t.Errorf("BGL@40k distinct events = %d, want ≈206", large)
	}
	if small >= large {
		t.Errorf("distinct events must grow with volume: %d vs %d", small, large)
	}
}

func TestSpecWeightMonotone(t *testing.T) {
	prev := specWeight(1)
	for r := 2; r <= 400; r++ {
		w := specWeight(r)
		if w <= 0 || w > prev {
			t.Fatalf("weight not positive-decreasing at rank %d: %v > %v", r, w, prev)
		}
		prev = w
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil || !strings.Contains(err.Error(), strings.Join(AllNames(), ", ")) {
		t.Errorf("unknown dataset: err = %v, want one naming the known datasets", err)
	}
	if _, err := ByName("hdfs"); err != nil {
		t.Errorf("lowercase name rejected: %v", err)
	}
}

func TestSummarize(t *testing.T) {
	s, err := Summarize("HDFS")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumLogs != 11175629 || s.NumEvents != 29 {
		t.Errorf("Summarize(HDFS) = %+v", s)
	}
}

func TestTruthResult(t *testing.T) {
	msgs := HDFS().Generate(5, 300)
	res := TruthResult(msgs)
	if err := res.Validate(len(msgs)); err != nil {
		t.Fatal(err)
	}
	// Every message must be assigned to a template whose ID equals its
	// ground-truth label.
	for i, m := range msgs {
		if got := res.Templates[res.Assignment[i]].ID; got != m.TruthID {
			t.Fatalf("message %d assigned to %q, truth %q", i, got, m.TruthID)
		}
	}
	if got, want := len(res.Templates), DistinctEvents(msgs); got != want {
		t.Errorf("templates = %d, distinct truth events = %d", got, want)
	}
}

func TestCatalogSampleProperty(t *testing.T) {
	c := Zookeeper()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		idx := c.sample(rng)
		return idx >= 0 && idx < len(c.Specs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
