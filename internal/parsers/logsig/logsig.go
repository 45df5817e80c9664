// Package logsig implements LogSig (Tang, Li, Perng; CIKM 2011), which
// casts log parsing as message-signature search over k groups:
//
//  1. Word-pair generation: each message becomes the set of ordered word
//     pairs (wi, wj), i<j, encoding words plus their relative order.
//  2. Log clustering: starting from a random assignment into k groups,
//     a local search repeatedly moves each message to the group whose
//     pairs it matches best, maximising a potential function until no
//     message moves.
//  3. Template generation: per group, the words appearing in more than
//     half of the group's messages form the template, ordered by their
//     median position.
//
// k — the number of event types — must be chosen beforehand; the paper's
// Finding 4 is about how expensive tuning it is, and the RQ1/RQ3 harness
// tunes it on a 2k sample exactly as §IV-C describes.
package logsig

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"logparse/internal/core"
	"logparse/internal/telemetry"
)

// Options configures LogSig.
type Options struct {
	// NumGroups is k, the number of message groups (event types) the local
	// search partitions the log into. Required.
	NumGroups int
	// MaxIterations caps local-search rounds. Defaults to 100; the search
	// almost always converges much earlier.
	MaxIterations int
	// Seed drives the random initial assignment. The paper averages 10
	// runs with different random initialisations.
	Seed int64
	// Restarts runs the local search from several random initialisations
	// and keeps the solution with the highest global potential. Local
	// search converges to local optima, so restarts trade time for
	// stability. Defaults to 1 (the original single-run behaviour).
	Restarts int
	// Telemetry, when non-nil, records per-stage spans (word-pair
	// generation, local search, template generation) and parse counters.
	// Instrumentation is behavior-neutral and, when nil, free.
	Telemetry *telemetry.Handle
}

// Parser is a configured LogSig instance, stateless across Parse calls.
type Parser struct {
	opts Options
}

var _ core.Parser = (*Parser)(nil)

// New creates a LogSig parser.
func New(opts Options) *Parser {
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 100
	}
	if opts.Restarts <= 0 {
		opts.Restarts = 1
	}
	return &Parser{opts: opts}
}

// Name implements core.Parser.
func (p *Parser) Name() string { return "LogSig" }

// pair is an ordered word pair (the order of the two words in the message).
type pair struct {
	a, b string
}

// cancelCheckStride is how many messages one local-search sweep handles
// between context checks; LogSig's local search is the paper's slowest
// non-quadratic phase, so sweeps must be interruptible mid-iteration.
const cancelCheckStride = 512

// Parse implements core.Parser.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser, checking ctx inside the local-search
// iterations (LogSig's dominant cost) so a deadline interrupts the search
// rather than waiting for convergence.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	if len(msgs) == 0 {
		return nil, core.ErrNoMessages
	}
	k := p.opts.NumGroups
	if k <= 0 {
		return nil, fmt.Errorf("logsig: NumGroups must be positive, got %d", k)
	}
	if k > len(msgs) {
		k = len(msgs)
	}
	n := len(msgs)
	sp := p.opts.Telemetry.StartParse(ctx, "logsig", n)
	defer sp.End()

	// Step 1: word pairs per message, each interned to a dense id.
	stage := sp.Child("wordpairs")
	pairsOf, numPairs := pairIDs(msgs)
	stage.End()

	// Step 2: local search, with restarts keeping the highest-potential
	// solution.
	stage = sp.Child("search")
	var group, size []int
	bestPotential := -1.0
	for restart := 0; restart < p.opts.Restarts; restart++ {
		g, s, c, err := p.localSearch(ctx, pairsOf, numPairs, k, p.opts.Seed+int64(restart))
		if err != nil {
			return nil, err
		}
		pot := potential(pairsOf, g, c, s)
		if pot > bestPotential {
			bestPotential = pot
			group, size = g, s
		}
	}
	stage.End()

	// Step 3: template generation per non-empty group.
	stage = sp.Child("templates")
	defer stage.End()
	res := &core.ParseResult{Assignment: make([]int, n)}
	groupToTemplate := make([]int, k)
	for g := 0; g < k; g++ {
		groupToTemplate[g] = -1
	}
	for g := 0; g < k; g++ {
		if size[g] == 0 {
			continue
		}
		var members []int
		for i := 0; i < n; i++ {
			if group[i] == g {
				members = append(members, i)
			}
		}
		groupToTemplate[g] = len(res.Templates)
		res.Templates = append(res.Templates, core.Template{
			ID:     fmt.Sprintf("LogSig-%d", len(res.Templates)+1),
			Tokens: signature(members, msgs),
		})
	}
	for i := 0; i < n; i++ {
		res.Assignment[i] = groupToTemplate[group[i]]
	}
	return res, nil
}

// localSearch runs one randomly initialised local-search pass and returns
// the converged assignment, group sizes and per-group pair counts, each
// group's counts indexed by pair id. It checks ctx every cancelCheckStride
// messages of every sweep.
func (p *Parser) localSearch(ctx context.Context, pairsOf [][]int32, numPairs, k int, seed int64) ([]int, []int, [][]int32, error) {
	n := len(pairsOf)
	rng := rand.New(rand.NewSource(seed))
	group := make([]int, n)
	size := make([]int, k)
	count := make([][]int32, k)
	for g := range count {
		count[g] = make([]int32, numPairs)
	}
	for i := range group {
		g := rng.Intn(k)
		group[i] = g
		size[g]++
		for _, r := range pairsOf[i] {
			count[g][r]++
		}
	}
	for iter := 0; iter < p.opts.MaxIterations; iter++ {
		moved := 0
		for i := 0; i < n; i++ {
			if i%cancelCheckStride == 0 {
				if err := ctx.Err(); err != nil {
					return nil, nil, nil, fmt.Errorf("logsig: local search iteration %d: %w", iter, err)
				}
			}
			best, bestScore := group[i], -1.0
			for g := 0; g < k; g++ {
				s := score(pairsOf[i], count[g], size[g])
				if s > bestScore {
					best, bestScore = g, s
				}
			}
			if best == group[i] {
				continue
			}
			old := group[i]
			for _, r := range pairsOf[i] {
				count[old][r]--
				count[best][r]++
			}
			size[old]--
			size[best]++
			group[i] = best
			moved++
		}
		if moved == 0 {
			break
		}
	}
	return group, size, count, nil
}

// potential is the global objective Σ_X Σ_{r∈R(X)} p(r, C_X)², the value
// the local search climbs; restarts keep the solution maximising it.
func potential(pairsOf [][]int32, group []int, count [][]int32, size []int) float64 {
	total := 0.0
	for i, rs := range pairsOf {
		total += score(rs, count[group[i]], size[group[i]])
	}
	return total
}

// wordPairs builds the ordered word-pair set of a token sequence.
// Duplicate pairs are kept single (it is a set).
func wordPairs(tokens []string) []pair {
	seen := make(map[pair]struct{}, len(tokens)*(len(tokens)-1)/2)
	out := make([]pair, 0, len(tokens)*(len(tokens)-1)/2)
	for i := 0; i < len(tokens); i++ {
		for j := i + 1; j < len(tokens); j++ {
			r := pair{tokens[i], tokens[j]}
			if _, ok := seen[r]; ok {
				continue
			}
			seen[r] = struct{}{}
			out = append(out, r)
		}
	}
	return out
}

// pairIDs builds every message's word-pair set with each pair interned to a
// dense id, so the local search counts pairs in slices, not in maps keyed
// by two strings.
func pairIDs(msgs []core.LogMessage) ([][]int32, int) {
	ids := make(map[pair]int32)
	out := make([][]int32, len(msgs))
	for i := range msgs {
		rs := wordPairs(msgs[i].Tokens)
		out[i] = make([]int32, len(rs))
		for j, r := range rs {
			id, ok := ids[r]
			if !ok {
				id = int32(len(ids))
				ids[r] = id
			}
			out[i][j] = id
		}
	}
	return out, len(ids)
}

// score is the message's potential in a group: Σ_r p(r,C)² over the
// message's pairs, where p(r,C) is the fraction of the group's messages
// containing pair r. Squaring rewards groups where the message's pairs are
// strongly shared, the potential function of the original paper.
func score(rs []int32, counts []int32, size int) float64 {
	if size == 0 {
		return 0
	}
	s := 0.0
	den := float64(size) * float64(size)
	for _, r := range rs {
		c := float64(counts[r])
		s += c * c / den
	}
	return s
}

// signature extracts a group's template: words present in more than half of
// the group's messages, ordered by median token position.
func signature(members []int, msgs []core.LogMessage) []string {
	wordCount := make(map[string]int)
	positions := make(map[string][]int)
	for _, m := range members {
		seen := make(map[string]bool)
		for pos, w := range msgs[m].Tokens {
			positions[w] = append(positions[w], pos)
			if !seen[w] {
				wordCount[w]++
				seen[w] = true
			}
		}
	}
	half := len(members) / 2
	type wp struct {
		word string
		med  int
	}
	var chosen []wp
	for w, c := range wordCount {
		if c > half {
			ps := positions[w]
			sort.Ints(ps)
			chosen = append(chosen, wp{w, ps[len(ps)/2]})
		}
	}
	sort.Slice(chosen, func(a, b int) bool {
		if chosen[a].med != chosen[b].med {
			return chosen[a].med < chosen[b].med
		}
		return chosen[a].word < chosen[b].word
	})
	if len(chosen) == 0 {
		return []string{core.Wildcard}
	}
	out := make([]string, len(chosen))
	for i, c := range chosen {
		out[i] = c.word
	}
	return out
}
