package stream

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/spell"
)

// refDigest is the digest spelled out: every template rendered to a string
// with its count, the strings sorted, each hashed with a newline. The arena
// renderer behind Digest and StatsDigest must agree with it byte for byte.
func refDigest(templates []core.Template, counts []int64) string {
	rows := make([]string, len(templates))
	for i, t := range templates {
		c := int64(0)
		if i < len(counts) {
			c = counts[i]
		}
		rows[i] = t.String() + "\t" + strconv.FormatInt(c, 10)
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, r := range rows {
		h.Write([]byte(r + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fixedLearner is an online parser whose groups are given in advance: a line
// joins the group its first token numbers, and groups must be founded in
// order. Unlike Drain and Spell it can hold identical templates, which the
// digest must keep apart by their counts.
type fixedLearner struct {
	tmpls [][]string
	n     int // groups founded so far
}

func (f *fixedLearner) Name() string { return "fixed" }

func (f *fixedLearner) LearnBytes(tokens [][]byte) (int, bool) {
	i, _ := strconv.Atoi(string(tokens[0]))
	if i < f.n {
		return i, false
	}
	f.n = i + 1
	return i, true
}

func (f *fixedLearner) Templates() []core.Template {
	out := make([]core.Template, f.n)
	for i := range out {
		out[i] = core.Template{ID: fmt.Sprintf("F%d", i+1), Tokens: append([]string(nil), f.tmpls[i]...)}
	}
	return out
}

func (f *fixedLearner) TemplateTokens(i int) []string { return f.tmpls[i] }

func (f *fixedLearner) Snapshot() ([]byte, error) {
	return core.MarshalSnapshot(struct{}{}, f.tmpls[:f.n])
}

func (f *fixedLearner) Restore([]byte) error { return errors.New("fixed: no restore") }

// digestEdges are templates at the row order's edges: "a" is a prefix of
// "a\x01", whose next byte sorts below the tab that ends "a"'s template, so
// the rows order the other way round from the templates; "a b" is there
// three times and must be told apart by its counts; and with count 1, "a"'s
// whole row prefixes the last template's, whose next byte sorts below the
// newline hashed after each row, so rows must be compared without it.
var digestEdges = [][]string{{"a"}, {"a\x01"}, {"a", "b"}, {"a", "b"}, {"a\x01", "b"}, {"a", "b"}, {"a\t1\x01"}}

// TestStatsDigestMatchesDigest holds the arena renderer to the digest spelled
// out: Digest over the edge templates with count lists of every length, and
// StatsDigest and Engine.Digest against it over the engine's Result in
// retrain mode, under Drain and Spell, and under a learner with identical
// templates.
func TestStatsDigestMatchesDigest(t *testing.T) {
	tmpls := make([]core.Template, len(digestEdges))
	for i, toks := range digestEdges {
		tmpls[i] = core.Template{ID: fmt.Sprintf("E%d", i+1), Tokens: toks}
	}
	for _, counts := range [][]int64{{1, 3, 2, 7, 1, 2, 4}, {3, 5, 7, 7, 7, 7, 7}, {1, 1}, nil, {-1, 12, 100, 100, 0, 3, 99, 8}} {
		if got, want := Digest(tmpls, counts), refDigest(tmpls, counts); got != want {
			t.Fatalf("Digest(edges, %v) = %s, want %s", counts, got, want)
		}
	}
	if got, want := Digest(nil, nil), refDigest(nil, nil); got != want {
		t.Fatalf("Digest of nothing = %s, want %s", got, want)
	}

	var edgeLines []string
	for i := range 40 {
		edgeLines = append(edgeLines, "a", "a\x01 b")
		if i%2 == 0 {
			edgeLines = append(edgeLines, "a\x01", "a b")
		}
	}
	mixed := append(synthLines(3000, 5), edgeLines...)
	var fixed []string
	for i := range digestEdges { // found the groups in order, then unequal counts
		fixed = append(fixed, strconv.Itoa(i))
	}
	for i := range 30 {
		fixed = append(fixed, strconv.Itoa(i%4+2), strconv.Itoa(i%3+1), "5")
	}
	for name, c := range map[string]struct {
		cfg   Config
		lines []string
	}{
		"retrain": {Config{Retrainer: &groupMiner{}, RetrainBatch: 64}, mixed},
		"drain":   {Config{Online: drain.NewStream(drain.Options{})}, mixed},
		"spell":   {Config{Online: spell.NewStream(spell.Options{})}, mixed},
		"fixed":   {Config{Online: &fixedLearner{tmpls: digestEdges}}, fixed},
	} {
		t.Run(name, func(t *testing.T) {
			c.cfg.CheckpointDir = t.TempDir()
			e, err := New(c.cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := feedLines(context.Background(), e, c.lines); err != nil {
				t.Fatal(err)
			}
			st, got := e.StatsDigest()
			want := refDigest(e.Result())
			if got != want || e.Digest() != want {
				t.Fatalf("StatsDigest %s, Digest %s, want %s", got, e.Digest(), want)
			}
			if st.Processed != int64(len(c.lines)) {
				t.Fatalf("stats after %d lines: %+v", len(c.lines), st)
			}
		})
	}
}

// TestStatsDigestAllocsFlat: a stats poll allocates a constant handful — the
// rows' arena and offsets, the hash, the hex digest — whatever the template
// count; rendering every template to a string allocated per template.
func TestStatsDigestAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		tmpls, lines := make([][]string, n), make([]string, n)
		for i := range n {
			lines[i] = strconv.Itoa(i)
			tmpls[i] = []string{lines[i], "event", "*"}
		}
		e, err := New(Config{CheckpointDir: t.TempDir(), Online: &fixedLearner{tmpls: tmpls}})
		if err != nil {
			t.Fatal(err)
		}
		if err := feedLines(context.Background(), e, lines); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() { e.StatsDigest() })
	}
	if few, many := allocs(10), allocs(5000); few != many || many > 8 {
		t.Fatalf("StatsDigest allocates %v times at 10 templates and %v at 5,000, want the same handful", few, many)
	}
}

// Sinks for BenchmarkStatsDigest's results, so no call is optimised away.
var (
	digestSink string
	rowsSink   digestRows
)

// BenchmarkStatsDigest is a stats poll's cost over template count: an online
// Drain engine fed fresh Thunderbird lines until it holds 1 k, 4 k and 16 k
// templates (off the clock), then StatsDigest per op. B/op is the rows' arena
// and offsets, allocs/op a constant handful, and held-ns/op the time e.mu is
// held per call, timed over a second loop of exactly the locked part.
func BenchmarkStatsDigest(b *testing.B) {
	for _, target := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("templates=%d", target), func(b *testing.B) {
			e, err := New(Config{CheckpointDir: b.TempDir(), CheckpointEvery: -1, Online: drain.NewStream(drain.Options{})})
			if err != nil {
				b.Fatal(err)
			}
			f := newFreshFeeder(b)
			for len(e.counts) < target {
				f.learn(e, 5000)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				_, digestSink = e.StatsDigest()
			}
			b.StopTimer()
			start := time.Now()
			for range b.N {
				e.mu.Lock()
				_, rowsSink = e.statsLocked(), e.digestLocked()
				e.mu.Unlock()
			}
			b.ReportMetric(float64(time.Since(start).Nanoseconds())/float64(b.N), "held-ns/op")
			b.ReportMetric(float64(len(e.counts)), "templates")
		})
	}
}
