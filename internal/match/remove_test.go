package match

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"logparse/internal/core"
)

// removeVocab is the token alphabet of the Insert/Remove op driver; probes
// replace the wildcard by a token no template holds.
var removeVocab = [4]string{"a", "b", "c", core.Wildcard}

// removeProbes is every line of 1–4 tokens over {a, b, c, z}.
var removeProbes = func() (out [][]string) {
	level := [][]string{nil}
	for n := 1; n <= 4; n++ {
		var next [][]string
		for _, p := range level {
			for _, tok := range []string{"a", "b", "c", "z"} {
				next = append(next, append(append([]string(nil), p...), tok))
			}
		}
		out = append(out, next...)
		level = next
	}
	return out
}()

// runRemoveOps decodes data as Insert/Remove operations (two bytes each:
// op and length, then four 2-bit tokens) and after every one holds the
// matcher to New(live set): the shape invariant on every node, node for
// node the same trie, same live templates, same answer from Match,
// MatchIndex and MatchBytes on every probe.
func runRemoveOps(t testing.TB, data []byte) {
	t.Helper()
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	var live []core.Template
	slots := 0
	for op := 0; op+1 < len(data) && op < 128; op += 2 {
		tokens := make([]string, 1+int(data[op]>>1)%4)
		for i := range tokens {
			tokens[i] = removeVocab[(data[op+1]>>(2*i))&3]
		}
		at := -1
		for i, lt := range live {
			if reflect.DeepEqual(lt.Tokens, tokens) {
				at = i
			}
		}
		if data[op]&1 == 0 {
			tm := core.Template{ID: fmt.Sprintf("T%d", op/2), Tokens: tokens}
			if err := m.Insert(tm); (err == nil) != (at < 0) {
				t.Fatalf("op %d: Insert(%q) err = %v with the template live = %v", op/2, tokens, err, at >= 0)
			}
			if at < 0 {
				live = append(live, tm)
				slots++
			}
		} else {
			if got := m.Remove(tokens); got != (at >= 0) {
				t.Fatalf("op %d: Remove(%q) = %v with the template live = %v", op/2, tokens, got, at >= 0)
			}
			if at >= 0 {
				live = append(live[:at:at], live[at+1:]...)
			}
		}
		fresh, err := New(live)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.templates) != slots {
			t.Fatalf("op %d: %d slots, want %d (retired slots are never reused)", op/2, len(m.templates), slots)
		}
		if m.NumTemplates() != len(live) || !reflect.DeepEqual(m.Templates(), fresh.Templates()) {
			t.Fatalf("op %d: live templates %v, want %v", op/2, m.Templates(), fresh.Templates())
		}
		if len(roots(m)) != len(roots(fresh)) {
			t.Fatalf("op %d: %d length roots, New builds %d", op/2, len(roots(m)), len(roots(fresh)))
		}
		for l, root := range roots(fresh) {
			sameTrie(t, fmt.Sprintf("op %d len %d", op/2, l), m.root(l), root)
		}
		for _, p := range removeProbes {
			want, werr := fresh.Match(p)
			got, gerr := m.Match(p)
			if (werr == nil) != (gerr == nil) || got.ID != want.ID {
				t.Fatalf("op %d: Match(%q) = %q (%v), New(live) gives %q (%v)", op/2, p, got.ID, gerr, want.ID, werr)
			}
			bs := make([][]byte, len(p))
			for i, tok := range p {
				bs[i] = []byte(tok)
			}
			si, sok := m.MatchIndex(p)
			bi, bok := m.MatchBytes(bs)
			if sok != (gerr == nil) || bok != sok || si != bi || (sok && m.templates[si].ID != got.ID) {
				t.Fatalf("op %d: probe %q: MatchIndex (%d,%v) MatchBytes (%d,%v) Match %q", op/2, p, si, sok, bi, bok, got.ID)
			}
		}
	}
}

// exactEdges lists a node's exact edges whichever form holds them, after
// holding the node to the shape invariant: a children map iff two or more
// exact children, soleKey/soleChild iff exactly one, neither on a leaf.
func exactEdges(t testing.TB, where string, n *node) map[string]*node {
	t.Helper()
	switch {
	case n.children != nil && (len(n.children) < 2 || n.soleChild != nil || n.soleKey != ""):
		t.Fatalf("%s: children map with %d entries beside sole edge %q/%v, want a map iff fan-out ≥ 2 and no sole edge then",
			where, len(n.children), n.soleKey, n.soleChild != nil)
	case n.soleChild == nil && n.soleKey != "":
		t.Fatalf("%s: soleKey %q without a soleChild", where, n.soleKey)
	case n.soleChild != nil:
		return map[string]*node{n.soleKey: n.soleChild}
	}
	return n.children
}

// sameTrie compares two tries node for node — same edges in the same form
// (sole edge or map) — and checks the shape invariant on both; terminal slots
// differ legitimately and are compared by presence.
func sameTrie(t testing.TB, where string, got, want *node) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: node missing", where)
	}
	if (got.template >= 0) != (want.template >= 0) {
		t.Fatalf("%s: terminal = %v, New builds %v", where, got.template >= 0, want.template >= 0)
	}
	ge, we := exactEdges(t, where, got), exactEdges(t, where+" (New)", want)
	if got.soleKey != want.soleKey || (got.children == nil) != (want.children == nil) {
		t.Fatalf("%s: sole edge %q map=%v, New builds %q map=%v", where, got.soleKey, got.children != nil, want.soleKey, want.children != nil)
	}
	if len(ge) != len(we) || (got.wildcard == nil) != (want.wildcard == nil) {
		t.Fatalf("%s: %d children wildcard=%v, New builds %d wildcard=%v (stale path left behind?)",
			where, len(ge), got.wildcard != nil, len(we), want.wildcard != nil)
	}
	for k, wc := range we {
		sameTrie(t, where+" "+k, ge[k], wc)
	}
	if want.wildcard != nil {
		sameTrie(t, where+" *", got.wildcard, want.wildcard)
	}
}

// TestInsertRemoveEquivalentToNew drives random Insert/Remove sequences.
func TestInsertRemoveEquivalentToNew(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	rounds := 300
	if testing.Short() {
		rounds = 40
	}
	for r := 0; r < rounds; r++ {
		data := make([]byte, 2*(4+rng.Intn(40)))
		rng.Read(data)
		if r%2 == 0 { // bias towards short templates so removals hit
			for i := 0; i < len(data); i += 2 {
				data[i] &= 0b11
			}
		}
		runRemoveOps(t, data)
	}
}

// FuzzMatchRemove is the coverage-guided twin of the test above; more seeds
// (wildcards, re-insert after remove, fan-out 2→1→2→1→0) under testdata/fuzz.
func FuzzMatchRemove(f *testing.F) {
	f.Add([]byte{0, 0x00, 2, 0x04, 1, 0x00, 1, 0x00, 3, 0x04}) // insert "a", "a b"; remove "a" twice, then "a b"
	f.Fuzz(func(t *testing.T, data []byte) { runRemoveOps(t, data) })
}

// TestRemoveRestoresSoleChild pins the shape transitions step and unlink
// own: the second child promotes the sole edge into a map, and a fan-out
// dropping from two to one demotes it back — the node answers from the
// single-child fast path again and the map is gone, not left to the collector
// to walk.
func TestRemoveRestoresSoleChild(t *testing.T) {
	m, err := New([]core.Template{tmpl("A", "a", "b"), tmpl("B", "a", "c")})
	if err != nil {
		t.Fatal(err)
	}
	root := m.root(2)
	if root.children != nil || root.soleKey != "a" {
		t.Fatalf("fan-out 1 root: map = %v, soleKey %q; want no map and the sole edge a", root.children != nil, root.soleKey)
	}
	a := root.soleChild
	if a.soleChild != nil || len(a.children) != 2 {
		t.Fatalf("fan-out 2 node: sole edge set = %v, %d map entries; want a two-entry map only", a.soleChild != nil, len(a.children))
	}
	b := a.children["b"]
	if b.children != nil || b.soleChild != nil {
		t.Error("leaf holds a map or a sole edge")
	}
	if !m.Remove([]string{"a", "c"}) {
		t.Fatal("Remove(a c) = false")
	}
	if a.soleKey != "b" || a.soleChild != b || a.children != nil {
		t.Errorf("after fan-out 2→1: soleKey %q, soleChild kept = %v, map = %v", a.soleKey, a.soleChild == b, a.children != nil)
	}
	if idx, ok := m.MatchBytes([][]byte{[]byte("a"), []byte("b")}); !ok || idx != 0 {
		t.Errorf("MatchBytes(a b) = (%d, %v), want (0, true)", idx, ok)
	}
	if _, ok := m.MatchIndex([]string{"a", "c"}); ok {
		t.Error("removed template still matches")
	}
}

// TestRemoveAbsentChangesNothing covers every way a template can be absent.
func TestRemoveAbsentChangesNothing(t *testing.T) {
	set := []core.Template{tmpl("A", "a", "b", "c"), tmpl("B", "a", "*", "c"), tmpl("C", "x")}
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Remove([]string{"x"}) {
		t.Fatal("Remove(x) = false")
	}
	before := m.Templates()
	for _, absent := range [][]string{
		{"x"},           // already removed
		{"a", "b"},      // a proper prefix: the node exists, nothing terminates there
		{"a", "b", "z"}, // diverges at the last token
		{"a", "q", "c"}, // covered by B's wildcard, but not B's tokens
		{"*", "b", "c"}, // no wildcard edge at the root
		{"a", "b", "c", "d"},
		nil,
	} {
		if m.Remove(absent) {
			t.Errorf("Remove(%q) = true for an absent template", absent)
		}
	}
	if !reflect.DeepEqual(m.Templates(), before) || m.NumTemplates() != 2 {
		t.Errorf("failed removals changed the set: %v", m.Templates())
	}
	fresh, _ := New(set[:2])
	sameTrie(t, "after failed removals", m.root(3), fresh.root(3))
}

// TestRemoveRetiresSlot defines what a matcher reports after a removal:
// the other templates keep their indices, the retired slot is never handed
// out again, NumTemplates counts and Templates lists the live templates in
// build order — so Templates()[i] is the template of index i only while
// nothing was removed. The stream engine keeps counters parallel to build
// order and must therefore never call Remove (pinned on its side by
// TestMatcherBuildOrderIsTemplateOrder).
func TestRemoveRetiresSlot(t *testing.T) {
	m, err := New([]core.Template{tmpl("A", "a", "*"), tmpl("B", "b", "*"), tmpl("C", "c", "*")})
	if err != nil {
		t.Fatal(err)
	}
	if !m.Remove([]string{"b", "*"}) {
		t.Fatal("Remove(b *) = false")
	}
	if idx, ok := m.MatchIndex([]string{"c", "1"}); !ok || idx != 2 {
		t.Errorf("C moved to index %d (%v) after B's removal, want 2", idx, ok)
	}
	if err := m.Insert(tmpl("D", "b", "*")); err != nil {
		t.Fatal(err)
	}
	if idx, ok := m.MatchIndex([]string{"b", "1"}); !ok || idx != 3 {
		t.Errorf("re-inserted template got index %d (%v), want the fresh slot 3", idx, ok)
	}
	var ids []string
	for _, tm := range m.Templates() {
		ids = append(ids, tm.ID)
	}
	if got := strings.Join(ids, " "); got != "A C D" || m.NumTemplates() != 3 {
		t.Errorf("Templates() = %s, NumTemplates() = %d; want A C D, 3", got, m.NumTemplates())
	}
	res := m.Apply([]core.LogMessage{{Content: "c 9"}, {Content: "b 9"}, {Content: "q 9"}})
	if err := res.Validate(3); err != nil {
		t.Fatalf("Apply after a removal: %v", err)
	}
	if want := []int{1, 2, core.OutlierID}; !reflect.DeepEqual(res.Assignment, want) {
		t.Errorf("Apply assignment = %v, want %v into the live templates", res.Assignment, want)
	}
}

// roots lists m's trie roots by token length, short and long alike.
func roots(m *Matcher) map[int]*node {
	out := map[int]*node{}
	for l, r := range m.short {
		if r != nil {
			out[l] = r
		}
	}
	for l, r := range m.long {
		out[l] = r
	}
	return out
}

// TestLongTemplateRoot covers token counts at and past shortLen, whose roots
// live in the map: they match only lines of their own length, and removing
// the last one leaves no root behind.
func TestLongTemplateRoot(t *testing.T) {
	long := func(n int, last string) []string {
		toks := make([]string, n)
		for i := range toks {
			toks[i] = fmt.Sprint("t", i)
		}
		toks[n-1] = last
		return toks
	}
	set := []core.Template{
		{ID: "S", Tokens: long(shortLen-1, core.Wildcard)},
		{ID: "L", Tokens: long(shortLen, core.Wildcard)},
		{ID: "XL", Tokens: long(5*shortLen, "end")},
	}
	m, err := New(set)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tokens []string
		want   string
	}{
		{long(shortLen-1, "x"), "S"},
		{long(shortLen, "x"), "L"},
		{long(5*shortLen, "end"), "XL"},
		{long(5*shortLen, "x"), ""},
		{long(shortLen+1, "x"), ""},
	} {
		got, err := m.Match(tc.tokens)
		if got.ID != tc.want || (err == nil) != (tc.want != "") {
			t.Errorf("%d tokens: matched %q (%v), want %q", len(tc.tokens), got.ID, err, tc.want)
		}
	}
	if !m.Remove(set[1].Tokens) || !m.Remove(set[2].Tokens) {
		t.Fatal("a long template was not removed")
	}
	if len(m.long) != 0 || m.root(shortLen-1) == nil {
		t.Fatalf("after removing the long templates: %d long roots, short root %v", len(m.long), m.root(shortLen-1))
	}
}
