package drain

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"logparse/internal/core"
	"logparse/internal/gen"
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
		"Receiving block blk_1 src: 10.0.0.1 dest: 10.0.0.2",
		"Receiving block blk_2 src: 10.0.0.3 dest: 10.0.0.4",
		"Verification succeeded for blk_1",
		"Verification succeeded for blk_9",
		"PacketResponder 1 for block blk_1 terminating",
		"PacketResponder 0 for block blk_7 terminating",
		"Receiving block blk_3 src: 10.0.0.5 dest: 10.0.0.6",
	}
}

func TestParseClustersByEvent(t *testing.T) {
	res, err := New(Options{}).Parse(msgs(sampleLines()...))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Validate(7); err != nil {
		t.Fatal(err)
	}
	if len(res.Templates) != 3 {
		t.Fatalf("got %d templates, want 3: %v", len(res.Templates), res.Templates)
	}
	if res.Assignment[0] != res.Assignment[1] || res.Assignment[0] != res.Assignment[6] {
		t.Errorf("Receiving lines split: %v", res.Assignment)
	}
	if res.Assignment[2] != res.Assignment[3] || res.Assignment[4] != res.Assignment[5] {
		t.Errorf("event lines split: %v", res.Assignment)
	}
	want := "Receiving block * src: * dest: *"
	if got := res.Templates[res.Assignment[0]].String(); got != want {
		t.Errorf("template = %q, want %q", got, want)
	}
}

func TestParseDeterministicAndNonRetaining(t *testing.T) {
	in := msgs(sampleLines()...)
	snapshot := make([]core.LogMessage, len(in))
	copy(snapshot, in)
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
	for i := range in {
		if in[i].Content != snapshot[i].Content || !reflect.DeepEqual(in[i].Tokens, snapshot[i].Tokens) {
			t.Fatalf("message %d mutated by Parse", i)
		}
	}
}

func TestParseEmptyAndOutliers(t *testing.T) {
	if _, err := New(Options{}).Parse(nil); err != core.ErrNoMessages {
		t.Errorf("empty input: err = %v, want ErrNoMessages", err)
	}
	res, err := New(Options{}).Parse(msgs("alpha beta", "   ", "alpha beta"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Assignment[1] != core.OutlierID {
		t.Errorf("blank line assigned %d, want outlier", res.Assignment[1])
	}
	if res.Assignment[0] != res.Assignment[2] {
		t.Errorf("identical lines split: %v", res.Assignment)
	}
}

func TestParseCtxCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(Options{}).ParseCtx(ctx, msgs(sampleLines()...)); err == nil {
		t.Error("cancelled parse returned nil error")
	}
}

func TestDigitTokensRouteToWildcard(t *testing.T) {
	// Two lines whose first token is a digit-bearing parameter must share a
	// leaf (both route through the wildcard edge) and merge at st=0.4.
	s := NewStream(Options{})
	learn := func(line string) int {
		toks := core.TokenizeBytes([]byte(line), nil)
		idx, _ := s.LearnBytes(toks)
		return idx
	}
	a := learn("conn1 established to peer alpha")
	b := learn("conn2 established to peer beta")
	if a != b {
		t.Errorf("digit-prefixed lines got groups %d and %d, want shared", a, b)
	}
	if got := s.Templates()[a].String(); got != "* established to peer *" {
		t.Errorf("merged template = %q", got)
	}
}

func TestMaxChildrenOverflowMerges(t *testing.T) {
	s := NewStream(Options{MaxChildren: 2})
	learn := func(line string) int {
		idx, _ := s.LearnBytes(core.TokenizeBytes([]byte(line), nil))
		return idx
	}
	learn("alpha service ready now ok")
	learn("beta service ready now ok")
	// Third distinct head token overflows the fan-out and routes through
	// the wildcard edge — a fresh leaf, so a new group is created there.
	c := learn("gamma service ready now ok")
	d := learn("delta service ready now ok")
	if c == 0 || c == 1 {
		t.Fatalf("overflow line joined literal-edge group %d", c)
	}
	if c != d {
		t.Errorf("two overflow lines got groups %d and %d, want shared", c, d)
	}
}

func TestTemplateCountMonotone(t *testing.T) {
	s := NewStream(Options{})
	lines := append(sampleLines(), sampleLines()...)
	prev := 0
	for _, l := range lines {
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
	warm := sampleLines()
	after := []string{
		"Receiving block blk_77 src: 10.0.0.9 dest: 10.0.0.1",
		"Verification succeeded for blk_2",
		"Deleting block blk_5 file /data/5",
		"PacketResponder 2 for block blk_4 terminating",
	}
	orig := NewStream(Options{})
	for _, l := range warm {
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
	for _, l := range after {
		toks := core.TokenizeBytes([]byte(l), nil)
		oi, oc := orig.LearnBytes(toks)
		ri, rc := restored.LearnBytes(core.TokenizeBytes([]byte(l), nil))
		if oi != ri || oc != rc {
			t.Fatalf("line %q: original (%d,%v) vs restored (%d,%v)", l, oi, oc, ri, rc)
		}
	}
	if !reflect.DeepEqual(orig.Templates(), restored.Templates()) {
		t.Fatal("template sets diverged after post-restore learning")
	}
}

func TestRestoreRejectsParameterMismatch(t *testing.T) {
	s := NewStream(Options{})
	s.LearnBytes(core.TokenizeBytes([]byte("alpha beta"), nil))
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	other := NewStream(Options{SimThreshold: 0.9})
	if err := other.Restore(blob); err == nil {
		t.Error("restore under different SimThreshold accepted")
	}
	if err := NewStream(Options{}).Restore([]byte("{")); err == nil {
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
			t.Fatalf("line %d: online group %d, batch %d", i, idx, res.Assignment[i])
		}
	}
	if !reflect.DeepEqual(res.Templates, s.Templates()) {
		t.Error("online and batch template sets differ")
	}
}

// TestLearnMatchedPathAllocs pins the steady-state learn path — descent,
// leaf similarity scan, group hit without template change — at zero
// allocations per line: it is the stream engine's per-line cost in online
// mode.
func TestLearnMatchedPathAllocs(t *testing.T) {
	s := NewStream(Options{})
	warm := [][]byte{
		[]byte("Receiving block blk_1 src: 10.0.0.1 dest: 10.0.0.2"),
		[]byte("Receiving block blk_2 src: 10.0.0.3 dest: 10.0.0.4"),
		[]byte("PacketResponder 1 for block blk_1 terminating"),
	}
	var buf [][]byte
	for _, l := range warm {
		buf = core.TokenizeBytes(l, buf)
		s.LearnBytes(buf)
	}
	line := []byte("Receiving block blk_9 src: 10.0.0.7 dest: 10.0.0.8")
	fn := func() {
		buf = core.TokenizeBytes(line, buf)
		if _, changed := s.LearnBytes(buf); changed {
			t.Fatal("warm line still changes the template set")
		}
	}
	fn()
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Errorf("matched learn path: %v allocs/op, want 0", allocs)
	}
}

func TestTelemetryInstrumentation(t *testing.T) {
	tel := telemetry.New()
	if _, err := New(Options{Telemetry: tel}).Parse(msgs(sampleLines()...)); err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("parse.drain.calls").Value(); got != 1 {
		t.Errorf("parse.drain.calls = %d, want 1", got)
	}
	if got := tel.Counter("parse.drain.lines").Value(); got != 7 {
		t.Errorf("parse.drain.lines = %d, want 7", got)
	}
}

func TestTemplatesAreCopies(t *testing.T) {
	s := NewStream(Options{})
	s.LearnBytes(core.TokenizeBytes([]byte("alpha beta gamma"), nil))
	tm := s.Templates()
	tm[0].Tokens[0] = "mutated"
	if got := s.Templates()[0].String(); strings.Contains(got, "mutated") {
		t.Error("Templates() exposes internal state")
	}
}

// refLearner is the learner this package shipped before leaves were indexed
// — the same descent, then a linear scan of every group in the leaf — kept
// as the specification LearnBytes is differentially tested against.
type refLearner struct {
	opts  Options
	roots map[int]*node
	tmpls [][]string
}

func newRef(opts Options) *refLearner {
	return &refLearner{opts: opts.withDefaults(), roots: map[int]*node{}}
}

func (r *refLearner) descend(toks []string) *node {
	cur := r.roots[len(toks)]
	if cur == nil {
		cur = &node{}
		r.roots[len(toks)] = cur
	}
	for _, tok := range toks[:min(r.opts.Depth-2, len(toks))] {
		key := core.Wildcard
		if !strings.ContainsAny(tok, "0123456789") {
			if child, ok := cur.children[tok]; ok {
				cur = child
				continue
			}
			if len(cur.children) < r.opts.MaxChildren {
				key = tok
			}
		}
		child, ok := cur.children[key]
		if !ok {
			child = &node{}
			if cur.children == nil {
				cur.children = map[string]*node{}
			}
			cur.children[key] = child
		}
		cur = child
	}
	return cur
}

func (r *refLearner) found(toks []string) int {
	leaf := r.descend(toks)
	r.tmpls = append(r.tmpls, toks)
	leaf.groups = append(leaf.groups, len(r.tmpls)-1)
	return len(r.tmpls) - 1
}

func (r *refLearner) LearnBytes(tokens [][]byte) (idx int, changed bool) {
	toks := make([]string, len(tokens))
	for i, tok := range tokens {
		toks[i] = string(tok)
	}
	best, bestSame := -1, -1
	for _, gi := range r.descend(toks).groups {
		same := 0
		for i, tok := range r.tmpls[gi] {
			if tok != core.Wildcard && tok == toks[i] {
				same++
			}
		}
		if same > bestSame {
			best, bestSame = gi, same
		}
	}
	if best >= 0 && float64(bestSame) >= r.opts.SimThreshold*float64(len(toks)) {
		for i, tok := range r.tmpls[best] {
			if tok != core.Wildcard && tok != toks[i] {
				r.tmpls[best][i] = core.Wildcard
				changed = true
			}
		}
		return best, changed
	}
	return r.found(toks), true
}

func (r *refLearner) Snapshot() []byte {
	blob, _ := json.Marshal(drainState{drainParams{r.opts.Depth, r.opts.SimThreshold, r.opts.MaxChildren}, r.tmpls})
	return blob
}

// restoredRef is the reference after Restore: the chronological replay of
// the snapshot's templates.
func restoredRef(opts Options, blob []byte) *refLearner {
	var st drainState
	if err := json.Unmarshal(blob, &st); err != nil {
		panic(err)
	}
	r := newRef(opts)
	for _, toks := range st.Templates {
		r.found(toks)
	}
	return r
}

// diffLearn feeds lines[:cut] to the learner and the reference, takes both
// through Snapshot→Restore into fresh learners, and continues with the rest:
// every (idx, changed), the final templates and the snapshot bytes must
// agree. It returns the restored learner.
func diffLearn(t testing.TB, opts Options, lines [][][]byte, cut int) *StreamParser {
	t.Helper()
	s, ref := NewStream(opts), newRef(opts)
	for i, toks := range lines {
		if i == cut {
			blob, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if want := ref.Snapshot(); !bytes.Equal(blob, want) {
				t.Fatalf("snapshot at line %d differs from the reference's:\n got %s\nwant %s", i, blob, want)
			}
			s, ref = NewStream(opts), restoredRef(opts, blob)
			if err := s.Restore(blob); err != nil {
				t.Fatal(err)
			}
		}
		gi, gc := s.LearnBytes(toks)
		wi, wc := ref.LearnBytes(toks)
		if gi != wi || gc != wc {
			t.Fatalf("line %d %q: got (%d, %v), reference (%d, %v)", i, toks, gi, gc, wi, wc)
		}
	}
	got := s.Templates()
	if len(got) != len(ref.tmpls) {
		t.Fatalf("%d templates, reference %d", len(got), len(ref.tmpls))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i].Tokens, ref.tmpls[i]) {
			t.Fatalf("template %d = %q, reference %q", i, got[i].Tokens, ref.tmpls[i])
		}
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if want := ref.Snapshot(); !bytes.Equal(blob, want) {
		t.Fatalf("final snapshot differs from the reference's:\n got %s\nwant %s", blob, want)
	}
	return s
}

// fuzzAlphabet is the token alphabet of FuzzDrainLearnEquivalence: one byte
// of input is one token, so the fuzzer reaches ties, merges and full leaves
// in a few dozen bytes. Digits route through the wildcard edge (they are how
// many groups come to share one leaf), "*" is the literal wildcard.
const fuzzAlphabet = "abcdefghij0123*"

// fuzzLines decodes fuzz input: newline ends a line, every other byte is one
// token of fuzzAlphabet (itself when it is a member).
func fuzzLines(data string) [][][]byte {
	var lines [][][]byte
	for _, l := range strings.Split(data, "\n") {
		var toks [][]byte
		for i := 0; i < len(l) && i < 24; i++ {
			c := l[i]
			if strings.IndexByte(fuzzAlphabet, c) < 0 {
				c = fuzzAlphabet[int(c)%len(fuzzAlphabet)]
			}
			toks = append(toks, []byte{c})
		}
		if len(toks) > 0 && len(lines) < 96 {
			lines = append(lines, toks)
		}
	}
	return lines
}

// fuzzOptions decodes the option selector: SimThreshold, then a MaxChildren
// small enough to overflow, then a depth whose routed levels exceed short
// lines.
func fuzzOptions(sel byte) Options {
	return Options{
		SimThreshold: []float64{0.4, 0.5, 1.0}[int(sel)%3],
		MaxChildren:  []int{0, 2}[int(sel)/3%2],
		Depth:        []int{0, 6}[int(sel)/6%2],
	}
}

// FuzzDrainLearnEquivalence holds LearnBytes to the reference learner,
// through a Snapshot→Restore at line cut.
func FuzzDrainLearnEquivalence(f *testing.F) {
	// Ten 6-token lines found ten groups in one leaf (digit heads route
	// through the wildcard edges; no two agree at 3 of 6, st=0.5) — the cuts
	// restore it at 7, 8, 9 and 10 groups — then two lines merge into groups
	// 2 and 7, and exact repeats must find their groups through the index.
	flood := "00aaaa\n11bbbb\n22cccc\n33dddd\n00eeee\n11ffff\n22gggg\n33hhhh\n00iiii\n11jjjj\n22abcd\n33efgh\n"
	for cut := byte(7); cut <= 10; cut++ {
		f.Add(flood+"00aaaa\n33efgh\n11jjjj\n22gggg", byte(1), cut)
	}
	// Exactly the smallest accepted count, and nothing else to go by:
	// "00a012" agrees with group 0 at 3 of 6 (st=0.5) and its other tokens
	// are new to the leaf, so only the 3 agreeing posting lists exist and
	// skipping more than 2 of them would lose the group.
	f.Add(flood+"00a012\n00a012", byte(1), byte(11))
	// A tie between an early and a late group of an indexed leaf: "03abcf"
	// agrees with group 0 (0 a b c) and with group 9 (3 a b f) at 4 of 6.
	f.Add("01abcd\n11bbbb\n22cccc\n33dddd\n00eeee\n11ffff\n22gggg\n33hhhh\n00iiii\n23abef\n03abcf\n23abcf", byte(1), byte(3))
	// Stale entry: group 0 loses its "c" at position 4 to the merge with
	// "01abgd"; "31hhcj" then still finds group 0 under (4, c) and must not
	// count it — it joins group 7 on 3 of 6 instead (st=0.4, 0.4·6 =
	// 2.4000000000000004).
	f.Add("01abcd\n11bbbb\n22cccc\n33dddd\n00eeee\n11ffff\n22gggg\n33hhhh\n00iiii\n11jjjj\n01abgd\n31hhcj\n01abcd", byte(0), byte(11))
	// SimThreshold·n an integer (0.4·5 = 2, 0.5·4 = 2, 1.0·n) and not
	// (0.4·7 = 2.8000000000000003, 0.5·5 = 2.5): a line exactly at the
	// smallest accepted count and one just under it, per length.
	f.Add("01abc\n01fgh\n21dde\n01abcde\n01fghij\n01aiiii\n21jjjjj", byte(0), byte(2))
	f.Add("01ab\n01ac\n01cd\n01abc\n01ade\n01dbc\n23ddc", byte(1), byte(4))
	f.Add("abc\nabc\nabd\nab*\n0bc\n1bc\n0bc", byte(2), byte(3))
	// A literal "*" in a line never counts as agreement, indexed or not.
	f.Add("a*c\na*c\n**\n**\n0*1*\n2*3*\n*\n*", byte(2), byte(4))
	f.Add(flood+"00a*aa\n0*aaaa\n*0aaaa", byte(0), byte(12))
	// Lines shorter than the routed levels (Depth 6 routes on four tokens).
	f.Add("a\nab\nabc\nabcd\nabcde\na\nab\nabd\n0\n1", byte(6), byte(5))
	// MaxChildren 2: the third and fourth head token overflow into the
	// wildcard edge and share its leaf.
	f.Add("abcde\nbbcde\ncbcde\ndbcde\nabcdf\ncbcdf\nebcde\ncccde\ndddde", byte(3), byte(4))
	f.Fuzz(func(t *testing.T, data string, sel, cut byte) {
		diffLearn(t, fuzzOptions(sel), fuzzLines(data), int(cut))
	})
}

// TestLearnMatchesReferenceOnDatasets replays every generated dataset
// through the learner and the reference, line by line. Thunderbird runs long
// enough for its firewall event to found thousands of groups in one leaf.
func TestLearnMatchesReferenceOnDatasets(t *testing.T) {
	for _, name := range gen.AllNames() {
		n := 6000
		if name == "Thunderbird" {
			n = 100000
			if testing.Short() {
				n = 20000
			}
		}
		t.Run(name, func(t *testing.T) {
			cat, err := gen.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			msgs := cat.Generate(7, n)
			lines := make([][][]byte, 0, n)
			for i := range msgs {
				if toks := core.TokenizeBytes([]byte(msgs[i].Content), nil); len(toks) > 0 {
					lines = append(lines, toks)
				}
			}
			s := diffLearn(t, Options{}, lines, len(lines)/2)
			if name == "Thunderbird" && s.LargestLeaf() <= 20*smallLeaf {
				t.Errorf("largest leaf holds %d groups: the indexed path was not exercised", s.LargestLeaf())
			}
		})
	}
}

// nearDuplicates is the hostile stream for a similarity-threshold learner:
// 14-token lines that share 3 constants (3/14 < 0.4) and differ everywhere
// else, so every line founds a group in the same leaf.
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

// TestNearDuplicateFloodIsLinear pins the work counter: the linear scan
// compares line i against i groups (≈ lines²/2 = 2·10⁸ comparisons here);
// the index nominates only groups sharing a token outside the three longest
// posting lists.
func TestNearDuplicateFloodIsLinear(t *testing.T) {
	lines := nearDuplicates(20000)
	s := NewStream(Options{})
	for _, toks := range lines {
		s.LearnBytes(toks)
	}
	for _, toks := range lines[:1000] { // and matching stays cheap in the full leaf
		if _, changed := s.LearnBytes(toks); changed {
			t.Fatal("a repeated line changed the template set")
		}
	}
	if s.NumTemplates() != len(lines) || s.LargestLeaf() != len(lines) {
		t.Fatalf("%d templates, largest leaf %d, want %d in one leaf", s.NumTemplates(), s.LargestLeaf(), len(lines))
	}
	if limit := uint64(len(lines)); s.verified > limit {
		t.Errorf("%d template comparisons over %d lines, want at most %d", s.verified, len(lines)+1000, limit)
	}
	if allocs := testing.AllocsPerRun(100, func() { s.LearnBytes(lines[len(lines)/2]) }); allocs != 0 {
		t.Errorf("matched path through the index: %v allocs/op, want 0", allocs)
	}
}

// TestFoundingAllocatesPerLine pins the cost of founding a group in a leaf
// that already holds 10 k: the template and its index entries (amortised),
// never a copy of anything sized by the leaf.
func TestFoundingAllocatesPerLine(t *testing.T) {
	lines := nearDuplicates(12000)
	s := NewStream(Options{})
	for _, toks := range lines[:10000] {
		s.LearnBytes(toks)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, toks := range lines[10000:] {
		s.LearnBytes(toks)
	}
	runtime.ReadMemStats(&after)
	perLine := (after.TotalAlloc - before.TotalAlloc) / 2000
	if perLine > 4096 { // one copy of a 10 k-entry []int per founding would be 80 KB
		t.Errorf("founding a group at 10 k groups allocates %d B/line", perLine)
	}
}
