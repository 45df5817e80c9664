package spell

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/match"
	"logparse/internal/telemetry"
)

func msgs(lines ...string) []core.LogMessage {
	out := make([]core.LogMessage, len(lines))
	for i, l := range lines {
		out[i] = core.LogMessage{LineNo: i + 1, Content: l, Tokens: core.Tokenize(l)}
	}
	return out
}

func sampleLines() []string {
	return []string{
		"Deleting block blk_1 file /data/1",
		"Deleting block blk_2 file /data/2",
		"session 0x1 closed after 15 ms",
		"session 0x2 closed after 9 ms",
		"Deleting block blk_3 file /data/3",
	}
}

func TestParseClustersByEvent(t *testing.T) {
	res, err := New(Options{}).Parse(msgs(sampleLines()...))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(5); err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 2 {
		t.Fatalf("got %d templates, want 2: %v", len(res.Templates), res.Templates)
	}
	if res.Assignment[0] != res.Assignment[1] || res.Assignment[0] != res.Assignment[4] {
		t.Errorf("Deleting lines split: %v", res.Assignment)
	}
	if res.Assignment[2] != res.Assignment[3] {
		t.Errorf("session lines split: %v", res.Assignment)
	}
	if got := res.Templates[res.Assignment[0]].String(); got != "Deleting block * file *" {
		t.Errorf("template = %q", got)
	}
	if got := res.Templates[res.Assignment[2]].String(); got != "session * closed after * ms" {
		t.Errorf("template = %q", got)
	}
}

func TestParseDeterministic(t *testing.T) {
	in := msgs(sampleLines()...)
	a, err := New(Options{}).Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(Options{}).Parse(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Error("two parses of the same input differ")
	}
}

func TestParseEmptyAndOutliers(t *testing.T) {
	if _, err := New(Options{}).Parse(nil); err != core.ErrNoMessages {
		t.Errorf("empty input: err = %v, want ErrNoMessages", err)
	}
	res, err := New(Options{}).Parse(msgs("alpha beta", "\t "))
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[1] != core.OutlierID {
		t.Errorf("blank line assigned %d, want outlier", res.Assignment[1])
	}
}

func TestParseCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Options{}).ParseCtx(ctx, msgs(sampleLines()...)); err == nil {
		t.Error("cancelled parse returned nil error")
	}
}

func TestTauRejectsDissimilarLines(t *testing.T) {
	s := NewStream(Options{Tau: 0.9})
	a, _ := s.LearnBytes(core.TokenizeBytes([]byte("connection from 10.0.0.1 refused"), nil))
	b, _ := s.LearnBytes(core.TokenizeBytes([]byte("shutdown requested by operator now"), nil))
	if a == b {
		t.Error("dissimilar lines merged under tau=0.9")
	}
}

func TestLCSProperties(t *testing.T) {
	cases := []struct {
		a, b, want []string
	}{
		{[]string{"a", "b", "c", "d"}, []string{"b", "d"}, []string{"b", "d"}},
		{[]string{"x"}, []string{"y"}, nil},
		{nil, []string{"a"}, nil},
		{[]string{"a", "a", "b"}, []string{"a", "b", "a"}, []string{"a", "a"}},
	}
	for _, c := range cases {
		got := LCS(c.a, c.b)
		if len(got) != len(c.want) {
			t.Errorf("LCS(%v, %v) = %v, want length %d", c.a, c.b, got, len(c.want))
			continue
		}
		if !isSubsequence(got, c.a) || !isSubsequence(got, c.b) {
			t.Errorf("LCS(%v, %v) = %v is not a common subsequence", c.a, c.b, got)
		}
	}
}

func isSubsequence(sub, seq []string) bool {
	i := 0
	for _, s := range seq {
		if i < len(sub) && sub[i] == s {
			i++
		}
	}
	return i == len(sub)
}

// TestKernelsMatchOracle pins both production LCS-length kernels to the
// full-table oracle at the 64-token boundary and on its awkward inputs.
func TestKernelsMatchOracle(t *testing.T) {
	rep := func(n int, pat ...string) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = pat[i%len(pat)]
		}
		return out
	}
	cases := []struct{ a, b []string }{
		{[]string{"alpha", "beta", "gamma", "delta", "beta"}, []string{"beta", "gamma", "beta", "omega"}},
		{[]string{"x"}, []string{"x"}},
		{[]string{"x"}, []string{"y"}},
		{[]string{"a", "*", "b"}, []string{"a", "b"}},
		{rep(63, "a", "b", "c"), rep(40, "c", "a")},
		{rep(64, "a", "b", "c"), rep(64, "a", "b", "c")},
		{rep(64, "a", "b"), rep(64, "b", "a", "a")},
		{rep(65, "a", "b", "c"), rep(65, "b", "c", "a")},
		{rep(120, "a", "b", "c", "d"), rep(120, "d", "b", "a")},
	}
	for _, c := range cases {
		checkKernels(t, c.a, c.b)
	}
}

func TestTemplateCountMonotone(t *testing.T) {
	s := NewStream(Options{})
	prev := 0
	for _, l := range append(sampleLines(), sampleLines()...) {
		idx, _ := s.LearnBytes(core.TokenizeBytes([]byte(l), nil))
		n := s.NumTemplates()
		if n < prev {
			t.Fatalf("template count shrank: %d -> %d", prev, n)
		}
		if idx < 0 || idx >= n {
			t.Fatalf("index %d out of range [0,%d)", idx, n)
		}
		prev = n
	}
}

func TestSnapshotRestoreIdenticalDecisions(t *testing.T) {
	orig := NewStream(Options{})
	for _, l := range sampleLines() {
		orig.LearnBytes(core.TokenizeBytes([]byte(l), nil))
	}
	blob, err := orig.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewStream(Options{})
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig.Templates(), restored.Templates()) {
		t.Fatal("restored template set differs")
	}
	after := []string{
		"Deleting block blk_9 file /data/9",
		"session 0x9 closed after 77 ms",
		"starting rebalance cycle over 4 volumes",
		"Deleting block blk_10 file /data/10",
	}
	for _, l := range after {
		oi, oc := orig.LearnBytes(core.TokenizeBytes([]byte(l), nil))
		ri, rc := restored.LearnBytes(core.TokenizeBytes([]byte(l), nil))
		if oi != ri || oc != rc {
			t.Fatalf("line %q: original (%d,%v) vs restored (%d,%v)", l, oi, oc, ri, rc)
		}
	}
	if !reflect.DeepEqual(orig.Templates(), restored.Templates()) {
		t.Fatal("template sets diverged after post-restore learning")
	}
}

func TestRestoreRejectsMismatch(t *testing.T) {
	s := NewStream(Options{})
	s.LearnBytes(core.TokenizeBytes([]byte("alpha beta"), nil))
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := NewStream(Options{Tau: 0.8}).Restore(blob); err == nil {
		t.Error("restore under different tau accepted")
	}
	if err := NewStream(Options{}).Restore([]byte("not json")); err == nil {
		t.Error("malformed snapshot accepted")
	}
}

func TestBatchMatchesOnline(t *testing.T) {
	lines := append(sampleLines(), sampleLines()...)
	res, err := New(Options{}).Parse(msgs(lines...))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(Options{})
	for i, l := range lines {
		idx, _ := s.LearnBytes(core.TokenizeBytes([]byte(l), nil))
		if idx != res.Assignment[i] {
			t.Fatalf("line %d: online object %d, batch %d", i, idx, res.Assignment[i])
		}
	}
	if !reflect.DeepEqual(res.Templates, s.Templates()) {
		t.Error("online and batch template sets differ")
	}
}

// TestLearnMatchedPathAllocs pins the accelerated learn path — a line
// positionally covered by an existing template, resolved by the trie
// without running LCS — at zero allocations per line.
func TestLearnMatchedPathAllocs(t *testing.T) {
	s := NewStream(Options{})
	var buf [][]byte
	for _, l := range sampleLines() {
		buf = core.TokenizeBytes([]byte(l), buf)
		s.LearnBytes(buf)
	}
	line := []byte("Deleting block blk_42 file /data/42")
	fn := func() {
		buf = core.TokenizeBytes(line, buf)
		if _, changed := s.LearnBytes(buf); changed {
			t.Fatal("warm line still changes the template set")
		}
	}
	fn()
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("accelerated learn path: %v allocs/op, want 0", allocs)
	}
}

// TestParseAllocsIndependentOfLines pins the batch facade's per-line cost:
// tokens are packed into one reused arena, so a corpus of recurring lines
// allocates for its few templates and its result, not per token per line.
func TestParseAllocsIndependentOfLines(t *testing.T) {
	var lines []string
	for i := 0; i < 400; i++ {
		lines = append(lines, sampleLines()...)
	}
	in := msgs(lines...)
	p := New(Options{})
	if allocs := testing.AllocsPerRun(5, func() {
		if _, err := p.Parse(in); err != nil {
			t.Fatal(err)
		}
	}); allocs > 200 {
		t.Errorf("Parse of %d recurring lines: %v allocs, want ≤ 200 (not per line)", len(in), allocs)
	}
}

// TestFoundingMissAllocsIndependentOfObjects pins a trie miss that founds an
// object — scan of every same-length object, intern, bucket and trie insert —
// at O(line) allocations with 10k objects already learned.
func TestFoundingMissAllocsIndependentOfObjects(t *testing.T) {
	s := NewStream(Options{})
	var buf [][]byte
	learn := func(i int) {
		line := fmt.Sprintf("u%da u%db u%dc u%dd u%de u%df", i, i, i, i, i, i)
		buf = core.TokenizeBytes([]byte(line), buf)
		if _, changed := s.LearnBytes(buf); !changed {
			t.Fatalf("line %d did not found an object", i)
		}
	}
	n := 0
	for ; n < 10000; n++ {
		learn(n)
	}
	m := s.matcher
	// Per founding line of 6 tokens: the line string and tokenizer scratch,
	// 6 token strings, the object and its three slices, 6 trie nodes,
	// amortised growth of objs/bucket/intern/names/masks/slotObj: 25 measured
	// (40 while every node carried a map).
	const bound = 30
	if allocs := testing.AllocsPerRun(200, func() { learn(n); n++ }); allocs > bound {
		t.Errorf("founding miss at %d objects: %v allocs/op, want ≤ %d", n, allocs, bound)
	}
	if s.matcher != m {
		t.Error("founding an object rebuilt the accelerator")
	}
}

// TestFoundingReusesInternedTokens pins what founding allocates when the
// learner already owns every token of the line: no token strings. Two
// founders intern a₁…a₁₄ and b₁…b₁₄; under Tau = 1 every other line that
// picks aᵢ or bᵢ per position founds an object (only an identical line's LCS
// reaches 14), and its template must hold the founders' strings themselves.
func TestFoundingReusesInternedTokens(t *testing.T) {
	const width = 14
	s := NewStream(Options{Tau: 1})
	vocab := [2][][]byte{make([][]byte, width), make([][]byte, width)}
	for v, name := range []string{"a", "b"} {
		for i := range vocab[v] {
			vocab[v][i] = []byte(fmt.Sprintf("%s%d=interned-token", name, i))
		}
		s.LearnBytes(vocab[v])
	}
	interned := len(s.names)
	line := make([][]byte, width)
	k := 1 // bit i picks position i's vocabulary; 0 and 1<<width-1 are the founders
	found := func() {
		for i := range line {
			line[i] = vocab[k>>i&1][i]
		}
		if _, changed := s.LearnBytes(line); !changed {
			t.Fatalf("line %d did not found an object", k)
		}
		k++
	}
	// The template and the matcher's copy of it, the object and its ID and
	// constant slices, the trie nodes below the line's fork, amortised growth
	// of objs/bucket/index/slotObj: 14 measured. With 14 token strings, a map
	// per node and the constants grown 1-2-4-8-16 on top it was 43.
	const bound = 16
	if allocs := testing.AllocsPerRun(500, found); allocs > bound {
		t.Errorf("founding from interned tokens: %v allocs/op, want ≤ %d", allocs, bound)
	}
	if len(s.names) != interned || len(s.intern) != interned-1 {
		t.Errorf("founding from interned tokens interned %d more", len(s.names)-interned)
	}
	for _, o := range s.objs {
		for i, tok := range o.tokens {
			if want := s.names[o.ids[i]]; unsafe.StringData(tok) != unsafe.StringData(want) {
				t.Fatalf("object %d token %d %q is a copy, not the interned string", o.idx, i, tok)
			}
		}
	}
}

// nearDuplicates is the hostile stream for a similarity-threshold learner
// (Drain's test of the same name uses it too): 14-token lines that share 3
// constants (3/14 < Tau) and differ everywhere else, so every line founds an
// object in the same bucket.
func nearDuplicates(n int) [][][]byte {
	rng := rand.New(rand.NewSource(1))
	lines := make([][][]byte, n)
	for i := range lines {
		toks := [][]byte{[]byte("IN=eth0"), []byte("OUT="), []byte("PROTO=UDP")}
		for len(toks) < 14 {
			toks = append(toks, []byte(fmt.Sprintf("F%d=%x", len(toks), rng.Int63())))
		}
		lines[i] = toks
	}
	return lines
}

// TestNearDuplicateFloodIsLinear pins the work counter: the bucket scan runs
// the LCS kernel on line i against i objects (≈ lines²/2 = 2·10⁸ runs here);
// the index finds three posting lists per line where ⌈Tau·14⌉ = 7 are needed
// and nominates nobody. Replayed lines are trie hits: no kernel, no
// allocation.
func TestNearDuplicateFloodIsLinear(t *testing.T) {
	lines := nearDuplicates(20000)
	s := NewStream(Options{})
	for _, toks := range lines {
		s.LearnBytes(toks)
	}
	founding := s.verified
	for _, toks := range lines[:1000] {
		if _, changed := s.LearnBytes(toks); changed {
			t.Fatal("a repeated line changed the template set")
		}
	}
	if b := s.byLen[14]; s.NumTemplates() != len(lines) || len(b.objs) != len(lines) {
		t.Fatalf("%d templates, %d in the 14-token bucket, want %d in one bucket", s.NumTemplates(), len(b.objs), len(lines))
	}
	if s.verified != founding {
		t.Errorf("replaying 1000 lines ran the LCS kernel %d times", s.verified-founding)
	}
	if limit := uint64(len(lines)); s.verified > limit {
		t.Errorf("%d LCS kernel runs over %d lines, want at most %d", s.verified, len(lines), limit)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.LearnBytes(lines[len(lines)/2]) }); allocs != 0 {
		t.Errorf("hit path beside a %d-object bucket: %v allocs/op, want 0", len(lines), allocs)
	}
}

// TestMergeKeepsMatcher pins the incremental accelerator update: a merge
// with no shared template strings moves one path in the trie and never
// recompiles it.
func TestMergeKeepsMatcher(t *testing.T) {
	s := NewStream(Options{})
	learn := func(line string) (int, bool) { return s.LearnBytes(core.TokenizeBytes([]byte(line), nil)) }
	for _, l := range sampleLines() {
		learn(l)
	}
	learn("starting rebalance cycle over 4 volumes")
	m := s.matcher
	if idx, changed := learn("starting rebalance cycle over 9 volumes"); idx != 2 || !changed {
		t.Fatalf("merge line: (%d, %v), want (2, true)", idx, changed)
	}
	if idx, changed := learn("session 0x3 expired after 15 ms"); idx != 1 || !changed {
		t.Fatalf("second merge line: (%d, %v), want (1, true)", idx, changed)
	}
	if s.matcher != m {
		t.Error("shadow-free merge rebuilt the accelerator")
	}
	if idx, changed := learn("starting rebalance cycle over 11 volumes"); idx != 2 || changed {
		t.Errorf("merged template not in the trie: (%d, %v)", idx, changed)
	}
	if _, ok := m.MatchIndex(strings.Fields("starting rebalance cycle over 4 volumes")); !ok {
		t.Error("line covered by the merged template misses the trie")
	}
	if got := m.NumTemplates(); got != 3 {
		t.Errorf("accelerator holds %d live templates, want 3", got)
	}
}

// refLearner is the learner this package had before the slow path moved to
// token IDs, kept as the differential reference: string LCS against every
// object, full accelerator rebuild per merge.
type refLearner struct {
	tau     float64
	objs    [][]string
	matcher *match.Matcher
	fastIdx []int
}

func refConstants(tmpl []string) (out []string) {
	for _, t := range tmpl {
		if t != core.Wildcard {
			out = append(out, t)
		}
	}
	return out
}

func (r *refLearner) LearnBytes(tokens [][]byte) (int, bool) {
	if r.matcher != nil {
		if mi, ok := r.matcher.MatchBytes(tokens); ok {
			return r.fastIdx[mi], false
		}
	}
	toks := make([]string, len(tokens))
	for i, t := range tokens {
		toks[i] = string(t)
	}
	best, bestLen := -1, 0
	for j, obj := range r.objs {
		if len(obj) != len(toks) {
			continue
		}
		if l := len(LCS(toks, refConstants(obj))); l > bestLen {
			best, bestLen = j, l
		}
	}
	if best >= 0 && float64(bestLen) >= r.tau*float64(len(toks)) {
		changed := false
		for i, t := range r.objs[best] {
			if t != core.Wildcard && t != toks[i] {
				r.objs[best][i] = core.Wildcard
				changed = true
			}
		}
		if changed {
			r.rebuild()
		}
		return best, changed
	}
	r.objs = append(r.objs, toks)
	r.rebuild()
	return len(r.objs) - 1, true
}

func (r *refLearner) rebuild() {
	seen := make(map[string]bool)
	var tmpls []core.Template
	r.fastIdx = r.fastIdx[:0]
	for j, obj := range r.objs {
		if key := strings.Join(obj, " "); !seen[key] {
			seen[key] = true
			tmpls = append(tmpls, core.Template{ID: fmt.Sprintf("L%d", j+1), Tokens: append([]string(nil), obj...)})
			r.fastIdx = append(r.fastIdx, j)
		}
	}
	r.matcher, _ = match.New(tmpls)
}

func (r *refLearner) Snapshot() []byte {
	blob, _ := json.Marshal(spellState{spellParams: spellParams{Tau: r.tau}, Templates: append([][]string{}, r.objs...)})
	return blob
}

func (r *refLearner) Restore(blob []byte) {
	var st spellState
	_ = json.Unmarshal(blob, &st)
	r.objs = st.Templates
	r.rebuild()
}

// diffLearn feeds lines to both learners and fails on the first line whose
// (idx, changed) differs, then compares templates and snapshot bytes.
func diffLearn(t testing.TB, s *StreamParser, ref *refLearner, lines []string) {
	t.Helper()
	var buf [][]byte
	for i, l := range lines {
		if buf = core.TokenizeBytes([]byte(l), buf); len(buf) == 0 {
			continue
		}
		gi, gc := s.LearnBytes(buf)
		wi, wc := ref.LearnBytes(buf)
		if gi != wi || gc != wc {
			t.Fatalf("line %d %q: got (%d, %v), reference (%d, %v)", i, l, gi, gc, wi, wc)
		}
	}
	got := s.Templates()
	if len(got) != len(ref.objs) {
		t.Fatalf("%d templates, reference %d", len(got), len(ref.objs))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Tokens, ref.objs[i]) {
			t.Fatalf("template %d = %q, reference %q", i, got[i].Tokens, ref.objs[i])
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Snapshot(); !bytes.Equal(blob, want) {
		t.Fatalf("snapshot differs from the reference's:\n got %s\nwant %s", blob, want)
	}
}

// diffLearnRestore is diffLearn with a Snapshot→Restore of both learners
// (into fresh ones) after the first half of the lines. The live learner
// continues beside the restored one: its candidate indexes carry the entries
// merges left stale, the restored one's are fresh, and both must keep
// deciding as the reference does.
func diffLearnRestore(t testing.TB, tau float64, lines []string) {
	t.Helper()
	live, liveRef := NewStream(Options{Tau: tau}), &refLearner{tau: tau}
	diffLearn(t, live, liveRef, lines[:len(lines)/2])
	blob, err := live.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	s, ref := NewStream(Options{Tau: tau}), &refLearner{tau: tau}
	if err := s.Restore(blob); err != nil {
		t.Fatal(err)
	}
	ref.Restore(blob)
	diffLearn(t, s, ref, lines[len(lines)/2:])
	diffLearn(t, live, liveRef, lines[len(lines)/2:])
}

// indexedCases are streams that push one length bucket past posting.Small in
// their first half — nine objects of unique tokens, then the objects the
// second half aims at — and probe the candidate index where it could be
// wrong. Lines stay under FuzzSpellLearnEquivalence's caps, so they seed it
// too; the bucket's token count is the map key.
func indexedCases() map[int][]string {
	filler := func(n int) (lines []string) {
		for k := 0; k < 9; k++ {
			w := make([]string, n)
			for i := range w {
				w[i] = fmt.Sprintf("%c%d", 'A'+k, i)
			}
			lines = append(lines, strings.Join(w, " "))
		}
		return lines
	}
	// splice is object a's line up to position cut and object b's from there:
	// LCS cut against a, n-cut against b.
	splice := func(lines []string, a, b, cut int) string {
		wa, wb := strings.Fields(lines[a]), strings.Fields(lines[b])
		return strings.Join(append(append([]string(nil), wa[:cut]...), wb[cut:]...), " ")
	}
	six := append(filler(6),
		"s1 s2 s3 s4 s5 s6",
		"s1 s2 s3 s4 s5 t6", // object 9 loses s6: its posting goes stale
		"g h i a b c",       // object 10
		"i h g d e f",       // object 11 shares g, h, i with it, in an order worth LCS 1
		"m1 m2 m3 m4 m5 m6",
		"m1 m2 m3 n4 n5 n6", // object 12 keeps three constants
		"m3 m2 m1 o4 o5 o6", // object 13
		// — restored here —
		"s1 s2 q3 q4 q5 s6", // 3 = need lists name object 9, one of them stale: LCS 2, founds
		"s1 s2 s3 y4 y5 s6",
		"h g i a d z", // LCS 3 against objects 10 and 11, and the chains name 11 first
		"h g i d e z",
		"zz1 zz2 zz3 zz4 zz5 zz6", // no known token, no list
		"r r r p q r",
		"r r p r r r", // repeated tokens on both sides
		"r q r q r q", // one list probed three times, another stale
		"s1 s2 s3 q3 q4 q5",
		"A0 A1 A2 x3 x4 x5",
		"A0 B1 C2 D3 E4 F5", // six candidates, none reaches need
		"* g h i a b",
		"q3 q4 q5 s1 s2 s6",
		"B0 B1 x2 x3 B4 x5",
		"C0 x1 C2 x3 x4 x5",
		// LCS 3 against object 13, nominated first, and against all three
		// constants of object 12: the prune must let the earlier object tie.
		"x m1 m2 m3 o5 o6",
	)
	long := filler(65) // the DP kernel: ⌈0.5·65⌉ = 33
	long = append(long,
		splice(long, 0, 1, 33), splice(long, 2, 3, 32), splice(long, 4, 4, 65), splice(long, 5, 6, 40),
		splice(long, 0, 7, 20), splice(long, 8, 0, 33), splice(long, 1, 3, 33), splice(long, 3, 1, 30),
		splice(long, 7, 8, 64),
	)
	wide := filler(120) // over the fuzz body's line cap
	wide = append(wide,
		splice(wide, 1, 0, 60), splice(wide, 3, 2, 60), splice(wide, 4, 5, 59), splice(wide, 6, 7, 61),
		splice(wide, 8, 8, 120), splice(wide, 0, 1, 60), splice(wide, 2, 5, 30), splice(wide, 7, 3, 90),
		splice(wide, 5, 4, 60),
	)
	return map[int][]string{6: six, 65: long, 120: wide}
}

// TestLearnMatchesReferenceOnDatasets replays every generated dataset
// through the learner and the reference, line by line.
func TestLearnMatchesReferenceOnDatasets(t *testing.T) {
	n := 6000
	if testing.Short() {
		n = 1500
	}
	for _, name := range gen.AllNames() {
		cat, err := gen.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		msgs := cat.Generate(7, n)
		lines := make([]string, len(msgs))
		for i := range msgs {
			lines[i] = msgs[i].Content
		}
		t.Run(name, func(t *testing.T) {
			diffLearn(t, NewStream(Options{}), &refLearner{tau: DefaultTau}, lines)
			diffLearnRestore(t, DefaultTau, lines)
		})
	}
}

// TestLearnMatchesReferenceHardCases forces the decisions the ID path could
// get wrong: the acceptance threshold where Tau·n is and is not an integer
// (0.3·10 rounds above 3 in float64), the 64/65-token kernel boundary,
// tokens the intern table has never seen, literal "*" tokens, a
// merge whose old trie path must not survive, a restored snapshot in
// which two objects share one template string and the earlier one then
// generalises (shadow → rebuild), and buckets past posting.Small, where the
// candidate index decides which objects the kernel sees (indexedCases; the
// 120-token one ties two objects at exactly ⌈Tau·n⌉ = 60).
func TestLearnMatchesReferenceHardCases(t *testing.T) {
	words := func(n int, f func(i int) string) string {
		w := make([]string, n)
		for i := range w {
			w[i] = f(i)
		}
		return strings.Join(w, " ")
	}
	long := func(n, variant int) string {
		// first half constant, the rest varies with variant — LCS exactly n/2
		// against another variant, plus i%variant agreements further on.
		return words(n, func(i int) string {
			if i < n/2 || i%variant == 0 {
				return fmt.Sprintf("k%d", i)
			}
			return fmt.Sprintf("v%d_%d", variant, i)
		})
	}
	thresholds := []string{
		"a b c d", "a b x y", "a q r s", "p b c z", // n=4: 0.5·4 = 2
		"a b c d e", "a b x y z", "a b c y z", "q r s t e", // n=5: 2.5
		"a b c d e f g h i j", "a b c 1 2 3 4 5 6 7", "a b c d 2 3 4 5 6 7", // n=10: 0.3·10 > 3
		"j i h g f e d c b a", "b c d e f g h i j a", "* b * d e * g * * *",
		"a b c", "a b *", "* * *", "a * c", "x", "x", "y",
	}
	boundary := []string{
		long(63, 2), long(63, 3), long(63, 5), long(64, 2), long(64, 3), long(64, 5),
		long(65, 2), long(65, 3), long(65, 5), long(120, 2), long(120, 7), long(120, 3),
		words(64, func(i int) string { return "same" }), words(64, func(i int) string { return []string{"same", "other"}[i%2] }),
		words(65, func(i int) string { return "same" }), words(65, func(i int) string { return []string{"same", "other"}[i%2] }),
	}
	// Under Tau 0.5 object 0 generalises away from "a b c …" while object 1
	// is "a b * …": were the old specific path left in the trie, the last
	// line would still walk it to object 0, where a rebuilt trie takes the
	// exact "a" edge to object 1 before it tries object 0's leading wildcard.
	stale := []string{
		"a b c d e f g h i j", "a b 1 2 3 4 5 6 7 8", "a b 2 3 4 5 x y z w",
		"Q b c d e f g h i j", "a b c d e f g h i j",
	}
	for _, tau := range []float64{0.3, 0.5, 1.0} {
		for name, lines := range map[string][]string{"thresholds": thresholds, "boundary": boundary, "stale": stale} {
			t.Run(fmt.Sprintf("%s/tau=%g", name, tau), func(t *testing.T) {
				diffLearn(t, NewStream(Options{Tau: tau}), &refLearner{tau: tau}, lines)
				diffLearnRestore(t, tau, append(append([]string(nil), lines...), lines...))
			})
		}
	}

	for n, lines := range indexedCases() {
		for _, tau := range []float64{0.3, 0.5, 1.0} {
			t.Run(fmt.Sprintf("indexed/n=%d/tau=%g", n, tau), func(t *testing.T) {
				s := NewStream(Options{Tau: tau})
				diffLearn(t, s, &refLearner{tau: tau}, lines[:len(lines)/2])
				if b := s.byLen[n]; b == nil || b.index == nil {
					t.Fatalf("the %d-token bucket is not indexed at the restore point", n)
				}
				diffLearnRestore(t, tau, lines)
			})
		}
	}

	t.Run("shadow", func(t *testing.T) {
		blob, err := json.Marshal(spellState{spellParams: spellParams{Tau: DefaultTau}, Templates: [][]string{
			{"job", "*", "done", "in", "*", "ms"}, {"other", "event", "here"}, {"job", "*", "done", "in", "*", "ms"},
		}})
		if err != nil {
			t.Fatal(err)
		}
		s, ref := NewStream(Options{}), &refLearner{tau: DefaultTau}
		if err := s.Restore(blob); err != nil {
			t.Fatal(err)
		}
		ref.Restore(blob)
		if !reflect.DeepEqual(s.shadow, []int{2}) {
			t.Fatalf("shadow = %v, want [2]", s.shadow)
		}
		m := s.matcher
		diffLearn(t, s, ref, []string{
			"job 7 done in 3 ms",    // trie → object 0, the earlier twin
			"job 7 failed in 3 ms",  // object 0 generalises; object 2 must take over the old template
			"job 8 done in 4 ms",    // exact edge before wildcard → object 2 now
			"job 8 stalled in 4 ms", // → object 0
			"job 9 done after 4 ms", // object 2 generalises, incrementally
			"job 9 done after 1 ms", // → object 2
		})
		if len(s.shadow) != 0 {
			t.Errorf("shadow = %v after the twins diverged, want none", s.shadow)
		}
		if s.matcher == m {
			t.Error("merge of a template shared by two objects did not rebuild the accelerator")
		}
	})
}

func TestTelemetryInstrumentation(t *testing.T) {
	tel := telemetry.New()
	if _, err := New(Options{Telemetry: tel}).Parse(msgs(sampleLines()...)); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("parse.spell.calls").Value(); got != 1 {
		t.Errorf("parse.spell.calls = %d, want 1", got)
	}
	if got := tel.Counter("parse.spell.lines").Value(); got != 5 {
		t.Errorf("parse.spell.lines = %d, want 5", got)
	}
}
