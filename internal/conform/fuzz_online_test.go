package conform

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"logparse/internal/parsers/drain"
)

// Fuzz target over Drain's online edge, its incremental prefix-tree insert.
// Seed corpora live under testdata/fuzz; scripts/verify.sh and the CI fuzz
// job run a short coverage-guided pass. Spell's kernels and learner are
// fuzzed next to their code (internal/parsers/spell).

// FuzzDrainInsert feeds arbitrary line batches to Drain's online learner:
// learning must never panic, the returned group index must be in range, the
// template count must grow monotonically (merging narrows groups, never
// deletes them), and replaying the same lines into a fresh learner must
// reproduce the same templates.
func FuzzDrainInsert(f *testing.F) {
	fuzzSeeds(f)
	f.Add("a 1\na 2\na 3\nb b b\n\na 4")
	f.Add(strings.Repeat("x * y\n", 4) + "x z y")
	f.Fuzz(func(t *testing.T, data string) {
		lines := strings.Split(data, "\n")
		if len(lines) > 64 {
			lines = lines[:64]
		}
		s := drain.NewStream(drain.Options{})
		prev := 0
		for _, line := range lines {
			if len(line) > 200 {
				line = line[:200]
			}
			tokens := bytes.Fields([]byte(line))
			if len(tokens) == 0 {
				continue
			}
			idx, _ := s.LearnBytes(tokens)
			n := len(s.Templates())
			if idx < 0 || idx >= n {
				t.Fatalf("LearnBytes returned index %d with %d templates", idx, n)
			}
			if n < prev {
				t.Fatalf("template count shrank: %d -> %d", prev, n)
			}
			prev = n
		}
		// Replay determinism: a fresh learner over the same input converges
		// to the same template set.
		again := drain.NewStream(drain.Options{})
		for _, line := range lines {
			if len(line) > 200 {
				line = line[:200]
			}
			if tokens := bytes.Fields([]byte(line)); len(tokens) > 0 {
				again.LearnBytes(tokens)
			}
		}
		if !reflect.DeepEqual(s.Templates(), again.Templates()) {
			t.Fatal("online learning is nondeterministic across identical replays")
		}
	})
}
