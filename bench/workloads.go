package main

import (
	"bytes"
	"fmt"
	"time"

	"logparse/internal/gen"
)

// workload is one named traffic mix. Sizes that grow with the run length are
// given per second of -seconds; scaled returns the ones a run uses.
type workload struct {
	Name string
	Why  string
	// Dataset is the internal/gen catalogue the stream is drawn from.
	Dataset string
	// Online is the server's -online value; "" is the default
	// match/retrain mode.
	Online string
	// BodyLines is the number of lines in each measured POST.
	BodyLines int
	// Prefix is the number of leading lines ingested during set-up and
	// checked against the file path's digest.
	Prefix int
	// Cycle makes the measured stream cycle through the prefix's lines (the
	// matcher has no per-line memory, and converged Drain none that
	// matters). Otherwise every line is fresh: the learners are measured on
	// a stream that never repeats, because a replayed line is already in
	// Spell's trie and costs a twentieth of a new one.
	Cycle bool
	// LinesPerSec sizes the closed-loop measured stream: LinesPerSec x
	// -seconds lines are sent, however long they take. It is close to what
	// this tree sustains on the 2-vCPU sandbox, so a run measures for about
	// -seconds.
	LinesPerSec int
	// Hist, when non-zero, makes the workload open-loop: set-up loads
	// tenant "hist" with this many lines, then for -seconds connection A
	// posts one body to tenant "live" every PostEvery while connection B
	// starts a query round on "hist" every RoundEvery.
	Hist       int
	PostEvery  time.Duration
	RoundEvery time.Duration
	// Rounds is the number of query rounds a closed-loop workload runs on
	// its own tenant once ingest has drained.
	Rounds int
	// LadderLinesPerSec sizes the stream prefix the traced run climbs the
	// ladder on; LadderSpellPerSec caps the Spell rung where Spell is not
	// the workload's own learner. Learner costs depend on stream length, so
	// the length is part of each number.
	LadderLinesPerSec int
	LadderSpellPerSec int
}

var workloads = []workload{
	{
		Name:    "wire-hdfs",
		Why:     "templates converge, so the learner idles and the cost is HTTP, WAL, event store and checkpoint",
		Dataset: "HDFS", BodyLines: 500, Prefix: 400_000, Cycle: true, LinesPerSec: 600_000, Rounds: 10,
		LadderLinesPerSec: 100_000, LadderSpellPerSec: 5_000,
	},
	{
		Name:    "learn-drain",
		Why:     "fresh Thunderbird lines from cold keep Drain's tree growing, so the learner and its checkpoints dominate",
		Dataset: "Thunderbird", Online: "Drain", BodyLines: 500, Prefix: 20_000, LinesPerSec: 38_000, Rounds: 20,
		LadderLinesPerSec: 10_000, LadderSpellPerSec: 2_000,
	},
	{
		Name:    "learn-spell",
		Why:     "the same fresh stream through Spell, whose LCS search dominates; a Drain-only change must not move it",
		Dataset: "Thunderbird", Online: "Spell", BodyLines: 500, Prefix: 20_000, LinesPerSec: 15_000, Rounds: 20,
		LadderLinesPerSec: 4_000, LadderSpellPerSec: 4_000,
	},
	{
		Name:    "query-beside-ingest",
		Why:     "small bodies at a fixed rate beside queries on a loaded tenant: per-request overhead and the store's read path",
		Dataset: "HDFS", Online: "Drain", BodyLines: 100, Prefix: 200_000, Cycle: true,
		Hist: 1_000_000, PostEvery: 2 * time.Millisecond, RoundEvery: 100 * time.Millisecond,
		LadderLinesPerSec: 25_000, LadderSpellPerSec: 5_000,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// prefixBodyLines is the body size of set-up traffic (verified prefix and
// preload), whatever the measured body size is.
const prefixBodyLines = 500

// quickDivisor shrinks every size in -quick mode: same code paths, same
// oracles, numbers that mean nothing.
const quickDivisor = 50

// sizes are the line and request counts one run uses.
type sizes struct {
	prefix      int // verified-prefix lines
	hist        int // preload lines, prefix included (open loop only)
	posts       int // measured POSTs
	rounds      int // query rounds
	ladder      int // ladder stream lines
	ladderSpell int // ladder lines for a Spell rung that is not the workload's learner
	ladderReads int // query rounds in the ladder
}

// roundTo rounds n down to a positive multiple of m.
func roundTo(n, m int) int {
	return max(n/m, 1) * m
}

// minLines is the least any stream may shrink to: two checkpoint intervals,
// so that even a -quick run finalizes event blocks to query.
const minLines = 10_000

// scaled derives a run's sizes from -seconds and -quick. Everything is a
// whole number of bodies, so every POST carries exactly BodyLines lines.
func (w workload) scaled(seconds int, quick bool) sizes {
	div := 1
	if quick {
		div = quickDivisor
	}
	s := sizes{
		prefix:      roundTo(w.Prefix/div, prefixBodyLines),
		ladder:      roundTo(max(w.LadderLinesPerSec*seconds/div, minLines), prefixBodyLines),
		ladderSpell: roundTo(w.LadderSpellPerSec*seconds/div, prefixBodyLines),
		ladderReads: max(20/div, 3),
	}
	if w.Hist > 0 {
		s.hist = max(roundTo(w.Hist/div, prefixBodyLines), s.prefix, minLines)
		span := time.Duration(seconds) * time.Second / time.Duration(div)
		s.posts = max(int(span/w.PostEvery), 1)
		s.rounds = max(int(span/w.RoundEvery), 2)
	} else {
		s.posts = max(w.LinesPerSec*seconds/div, minLines) / w.BodyLines
		s.rounds = max(w.Rounds/div, 2)
	}
	return s
}

// corpusLines is how many lines set-up generates for the ordinary run.
func (w workload) corpusLines(s sizes) int {
	if w.Cycle {
		return s.prefix
	}
	return s.prefix + s.posts*w.BodyLines
}

// generate draws n lines of the workload's dataset from seed.
func (w workload) generate(seed int64, n int) ([][]byte, error) {
	cat, err := gen.ByName(w.Dataset)
	if err != nil {
		return nil, err
	}
	msgs := cat.Generate(seed, n)
	total := 0
	for i := range msgs {
		total += len(msgs[i].Content)
	}
	// One backing array: the lines stay contiguous like a real log file.
	buf := make([]byte, 0, total)
	lines := make([][]byte, n)
	for i := range msgs {
		start := len(buf)
		buf = append(buf, msgs[i].Content...)
		lines[i] = buf[start:len(buf):len(buf)]
	}
	return lines, nil
}

// makeBodies joins consecutive groups of per lines into newline-delimited
// POST bodies (no trailing newline, so the server splits each back into
// exactly per lines). len(lines) must be a multiple of per.
func makeBodies(lines [][]byte, per int) [][]byte {
	bodies := make([][]byte, 0, len(lines)/per)
	for i := 0; i+per <= len(lines); i += per {
		bodies = append(bodies, bytes.Join(lines[i:i+per], []byte{'\n'}))
	}
	return bodies
}

// batches groups lines per without copying.
func batches(lines [][]byte, per int) [][][]byte {
	out := make([][][]byte, 0, len(lines)/per)
	for i := 0; i+per <= len(lines); i += per {
		out = append(out, lines[i:i+per])
	}
	return out
}
