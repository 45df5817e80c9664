package match

import (
	"fmt"
	"runtime"
	"testing"

	"logparse/internal/core"
)

// TestMatchBytesZeroAllocs pins the byte-path trie walk at zero allocations
// per match, including the backtracking case where an exact edge dead-ends
// and the wildcard edge wins. The map lookup children[string(tok)] relies
// on the compiler's no-copy conversion for map indexing; a refactor that
// hoists the conversion into a variable would silently reintroduce a
// per-token allocation, which this test catches.
func TestMatchBytesZeroAllocs(t *testing.T) {
	m, err := New([]core.Template{
		{ID: "T1", Tokens: []string{"connection", "from", "*", "port", "*"}},
		{ID: "T2", Tokens: []string{"connection", "from", "10.0.0.1", "port", "closed"}},
		{ID: "T3", Tokens: []string{"block", "*", "replicated", "to", "*", "nodes"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	tokenize := func(line string) [][]byte {
		return core.TokenizeBytes([]byte(line), make([][]byte, 0, 8))
	}
	direct := tokenize("connection from 10.0.0.7 port 1042")
	backtrack := tokenize("connection from 10.0.0.1 port 9") // T2 prefix dead-ends, wildcard T1 wins
	miss := tokenize("no such event shape here at-all")

	cases := []struct {
		name    string
		tokens  [][]byte
		wantIdx int
		wantOK  bool
	}{
		{"direct", direct, 0, true},
		{"backtrack", backtrack, 0, true},
		{"miss", miss, -1, false},
	}
	for _, tc := range cases {
		fn := func() {
			idx, ok := m.MatchBytes(tc.tokens)
			if idx != tc.wantIdx || ok != tc.wantOK {
				t.Fatalf("%s: MatchBytes = (%d, %v), want (%d, %v)", tc.name, idx, ok, tc.wantIdx, tc.wantOK)
			}
		}
		fn()
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op on MatchBytes, want 0", tc.name, allocs)
		}
	}
}

// TestInsertCostPerTemplate pins what founding a template costs the heap: a
// node per token and the matcher's copy of the tokens, no map below the fork.
// 1,000 templates of 14 tokens nobody shares — the shape of a high-cardinality
// stream's one big length bucket — measured 42 allocations and 4,477 B each
// while every node carried a map, 15 and 1,095 B without.
func TestInsertCostPerTemplate(t *testing.T) {
	const n, width = 1000, 14
	set := make([]core.Template, n)
	for i := range set {
		toks := make([]string, width)
		for j := range toks {
			toks[j] = fmt.Sprintf("t%d.%d", i, j)
		}
		set[i] = core.Template{ID: fmt.Sprintf("T%d", i), Tokens: toks}
	}
	m, err := New(nil)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, tm := range set {
		if err := m.Insert(tm); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / n
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f allocations, %.0f B per %d-token template", allocs, bytes, width)
	if allocs > 16 || bytes > 1200 {
		t.Errorf("Insert costs %.1f allocations and %.0f B per template, want ≤ 16 and ≤ 1200", allocs, bytes)
	}
}
