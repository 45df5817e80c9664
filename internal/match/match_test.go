package match

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/parsers/iplom"
)

func tmpl(id string, tokens ...string) core.Template {
	return core.Template{ID: id, Tokens: tokens}
}

func TestMatchExact(t *testing.T) {
	m, err := New([]core.Template{
		tmpl("E1", "Receiving", "block", "*"),
		tmpl("E2", "Deleting", "block", "*"),
		tmpl("E3", "done"),
	})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		content string
		want    string
	}{
		{"Receiving block blk_1", "E1"},
		{"Deleting block blk_9", "E2"},
		{"done", "E3"},
	}
	for _, tt := range tests {
		got, err := m.MatchContent(tt.content)
		if err != nil {
			t.Fatalf("MatchContent(%q): %v", tt.content, err)
		}
		if got.ID != tt.want {
			t.Errorf("MatchContent(%q) = %s, want %s", tt.content, got.ID, tt.want)
		}
	}
}

func TestMatchNoMatch(t *testing.T) {
	m, err := New([]core.Template{tmpl("E1", "a", "*")})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.MatchContent("b c"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("err = %v, want ErrNoMatch", err)
	}
	if _, err := m.MatchContent("a b c"); !errors.Is(err, ErrNoMatch) {
		t.Errorf("length mismatch: err = %v, want ErrNoMatch", err)
	}
}

func TestMatchPrefersExactOverWildcard(t *testing.T) {
	m, err := New([]core.Template{
		tmpl("WILD", "a", "*"),
		tmpl("EXACT", "a", "b"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.MatchContent("a b")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "EXACT" {
		t.Errorf("matched %s, want EXACT", got.ID)
	}
	got, err = m.MatchContent("a z")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "WILD" {
		t.Errorf("matched %s, want WILD", got.ID)
	}
}

func TestMatchBacktracks(t *testing.T) {
	// "a b *" and "a * c": the sequence "a b z" must not get stuck on the
	// exact-"b" path when it needs the wildcard path... and vice versa.
	m, err := New([]core.Template{
		tmpl("T1", "a", "b", "*"),
		tmpl("T2", "a", "*", "c"),
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.MatchContent("a x c")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "T2" {
		t.Errorf("matched %s, want T2", got.ID)
	}
	got, err = m.MatchContent("a b z")
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != "T1" {
		t.Errorf("matched %s, want T1", got.ID)
	}
}

func TestDuplicateTemplatesRejected(t *testing.T) {
	_, err := New([]core.Template{
		tmpl("A", "x", "*"),
		tmpl("B", "x", "*"),
	})
	if !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate templates: error %v, want ErrDuplicate", err)
	}
}

func TestApply(t *testing.T) {
	m, err := New([]core.Template{tmpl("E1", "ping", "*")})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []core.LogMessage{
		{Content: "ping 1", Tokens: []string{"ping", "1"}},
		{Content: "pong 1", Tokens: []string{"pong", "1"}},
		{Content: "ping 2"}, // tokens derived on demand
	}
	res := m.Apply(msgs)
	if res.Assignment[0] != 0 || res.Assignment[2] != 0 {
		t.Errorf("assignments = %v", res.Assignment)
	}
	if res.Assignment[1] != core.OutlierID {
		t.Error("unmatched message not an outlier")
	}
}

func TestParameters(t *testing.T) {
	m, err := New([]core.Template{tmpl("E5", "Receiving", "block", "*", "src:", "*")})
	if err != nil {
		t.Fatal(err)
	}
	_, params, err := m.Parameters([]string{"Receiving", "block", "blk_7", "src:", "/10.0.0.1:9"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(params, []string{"blk_7", "/10.0.0.1:9"}) {
		t.Errorf("params = %v", params)
	}
}

func TestRoundTripWithParser(t *testing.T) {
	// Property: templates mined by a parser re-match the very messages
	// they were mined from (those assigned with matching length).
	msgs := gen.HDFS().Generate(13, 2000)
	parsed, err := iplom.New(iplom.Options{}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromResult(parsed)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for i := range msgs {
		a := parsed.Assignment[i]
		if a == core.OutlierID || len(parsed.Templates[a].Tokens) != len(msgs[i].Tokens) {
			continue
		}
		if _, err := m.Match(msgs[i].Tokens); err == nil {
			matched++
		}
	}
	if matched < len(msgs)*9/10 {
		t.Errorf("only %d/%d messages re-match their mined templates", matched, len(msgs))
	}
}

func TestApplyAgreesWithTemplateMatches(t *testing.T) {
	// Property: whenever Apply assigns message → template, that template's
	// Matches must accept the message.
	msgs := gen.Zookeeper().Generate(17, 1000)
	parsed, err := iplom.New(iplom.Options{}).Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	m, err := FromResult(parsed)
	if err != nil {
		t.Fatal(err)
	}
	res := m.Apply(msgs)
	for i, a := range res.Assignment {
		if a == core.OutlierID {
			continue
		}
		if !res.Templates[a].Matches(msgs[i].Tokens) {
			t.Fatalf("Apply assigned message %d to non-matching template %q", i, res.Templates[a])
		}
	}
}

func TestMatcherProperty(t *testing.T) {
	// Property: a matcher built from a single arbitrary template matches
	// any instance of that template.
	f := func(raw []byte) bool {
		if len(raw) == 0 || len(raw) > 20 {
			return true
		}
		tokens := make([]string, len(raw))
		instance := make([]string, len(raw))
		for i, b := range raw {
			if b%3 == 0 {
				tokens[i] = core.Wildcard
				instance[i] = fmt.Sprintf("val%d", b)
			} else {
				tokens[i] = fmt.Sprintf("w%d", b%7)
				instance[i] = tokens[i]
			}
		}
		m, err := New([]core.Template{{ID: "T", Tokens: tokens}})
		if err != nil {
			return false
		}
		_, err = m.Match(instance)
		return err == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNumTemplates(t *testing.T) {
	m, err := New([]core.Template{tmpl("A", "a"), tmpl("B", "b")})
	if err != nil {
		t.Fatal(err)
	}
	if m.NumTemplates() != 2 {
		t.Errorf("NumTemplates = %d", m.NumTemplates())
	}
}

// TestInsertEquivalentToNew grows a matcher one template at a time and
// requires it to behave exactly like a matcher built in one shot at every
// step — same match outcomes (including the exact-over-wildcard tie-break
// and single-child fast-path cache transitions), same build-order indices.
func TestInsertEquivalentToNew(t *testing.T) {
	seq := []core.Template{
		tmpl("A", "a", "b", "c"),
		tmpl("B", "a", "b", "*"),
		tmpl("C", "a", "x", "c"),
		tmpl("D", "q", "r"),
		tmpl("E", "*", "r"),
		tmpl("F", "a", "y", "c"),
	}
	probes := [][]string{
		{"a", "b", "c"}, {"a", "b", "z"}, {"a", "x", "c"}, {"a", "y", "c"},
		{"q", "r"}, {"z", "r"}, {"a", "b"}, {"nope"},
	}
	grown, err := New(seq[:1])
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n <= len(seq); n++ {
		if n > 1 {
			if err := grown.Insert(seq[n-1]); err != nil {
				t.Fatalf("insert %s: %v", seq[n-1].ID, err)
			}
		}
		fresh, err := New(seq[:n])
		if err != nil {
			t.Fatal(err)
		}
		if grown.NumTemplates() != fresh.NumTemplates() {
			t.Fatalf("after %d inserts: %d templates, want %d", n, grown.NumTemplates(), fresh.NumTemplates())
		}
		for _, p := range probes {
			gi, gok := grown.MatchIndex(p)
			fi, fok := fresh.MatchIndex(p)
			if gi != fi || gok != fok {
				t.Errorf("after %d inserts, probe %v: grown (%d,%v) vs fresh (%d,%v)", n, p, gi, gok, fi, fok)
			}
			bs := make([][]byte, len(p))
			for i, tok := range p {
				bs[i] = []byte(tok)
			}
			if bi, bok := grown.MatchBytes(bs); bi != gi || bok != gok {
				t.Errorf("after %d inserts, probe %v: MatchBytes (%d,%v) vs MatchIndex (%d,%v)", n, p, bi, bok, gi, gok)
			}
		}
	}
}

// TestInsertRejectsDuplicateAndEmpty mirrors New's validation on the
// incremental path; a rejected insert must leave the matcher untouched.
func TestInsertRejectsDuplicateAndEmpty(t *testing.T) {
	m, err := New([]core.Template{tmpl("A", "a", "*")})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Insert(tmpl("B", "a", "*")); !errors.Is(err, ErrDuplicate) {
		t.Errorf("duplicate insert: error %v, want ErrDuplicate", err)
	}
	if err := m.Insert(tmpl("C")); err == nil || errors.Is(err, ErrDuplicate) {
		t.Errorf("empty insert: error %v, want a refusal other than ErrDuplicate", err)
	}
	if m.NumTemplates() != 1 {
		t.Errorf("failed inserts changed the template set: %d", m.NumTemplates())
	}
	if idx, ok := m.MatchIndex([]string{"a", "z"}); !ok || idx != 0 {
		t.Errorf("match after failed inserts = (%d,%v)", idx, ok)
	}
}
