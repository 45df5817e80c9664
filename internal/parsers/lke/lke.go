// Package lke implements LKE — Log Key Extraction (Fu, Lou, Wang, Li;
// ICDM 2009), the Microsoft log parser. LKE combines clustering with
// heuristic rules:
//
//  1. Log clustering: raw messages are clustered by single-link
//     agglomerative clustering under a weighted word-level edit distance
//     whose per-position weight is a sigmoid (early words matter more).
//     The merge threshold is picked automatically by 2-means over the
//     pairwise distances.
//  2. Cluster splitting: clusters are recursively split on the "private"
//     token position with the fewest distinct values when that value count
//     is small relative to the cluster (heuristic rule).
//  3. Log template generation: position-wise constant extraction.
//
// The clustering step computes all pairwise distances: Θ(n²) work. This is
// intentional fidelity to the original — it is the reason the paper's
// Finding 3 reports LKE cannot parse BGL4m/HDFS10m in reasonable time, and
// the efficiency experiment (Fig. 2) reproduces exactly that blow-up.
package lke

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"logparse/internal/cluster"
	"logparse/internal/core"
	"logparse/internal/telemetry"
)

// Options configures LKE.
type Options struct {
	// Threshold is the merge distance threshold in [0,1]. When 0 the
	// threshold is selected automatically with 2-means over a sample of
	// pairwise distances (the original behaviour).
	Threshold float64
	// Nu is the sigmoid midpoint of the positional weight (LKE's ν).
	// Defaults to 8: roughly, the first eight words dominate the distance.
	Nu float64
	// SplitRatio bounds the relative cardinality of a token position that
	// step 2 will split on: a position splits the cluster when its distinct
	// value count is >1 and ≤ SplitRatio×clusterSize. Defaults to 0.25.
	SplitRatio float64
	// Seed drives the threshold-sampling RNG (the paper runs LKE 10 times
	// and averages; different seeds reproduce that protocol).
	Seed int64
	// MaxMessages guards against accidentally running the Θ(n²) clustering
	// on an input it cannot finish in reasonable time; Parse returns
	// ErrTooLarge beyond it. 0 means no guard.
	MaxMessages int
	// Telemetry, when non-nil, records per-stage spans (threshold
	// selection, Θ(n²) clustering, splitting, template generation) and
	// parse counters. Instrumentation is behavior-neutral and, when nil,
	// free.
	Telemetry *telemetry.Handle
}

// ErrTooLarge is returned when the input exceeds Options.MaxMessages. The
// RQ2 experiment uses it to record "did not finish" points, mirroring the
// missing LKE points in Fig. 2.
var ErrTooLarge = fmt.Errorf("lke: input exceeds the configured O(n²) size guard")

// DefaultOptions returns the defaults described above.
func DefaultOptions() Options {
	return Options{Nu: 8, SplitRatio: 0.25}
}

// Parser is a configured LKE instance, stateless across Parse calls.
type Parser struct {
	opts Options
}

var _ core.Parser = (*Parser)(nil)

// New creates an LKE parser; zero-valued fields fall back to defaults.
func New(opts Options) *Parser {
	def := DefaultOptions()
	if opts.Nu == 0 {
		opts.Nu = def.Nu
	}
	if opts.SplitRatio == 0 {
		opts.SplitRatio = def.SplitRatio
	}
	return &Parser{opts: opts}
}

// Name implements core.Parser.
func (p *Parser) Name() string { return "LKE" }

// thresholdSamplePairs is how many random pairs the automatic threshold
// selection samples (sampling keeps threshold selection sub-quadratic; the
// clustering itself remains quadratic as in the original).
const thresholdSamplePairs = 20000

// cancelCheckStride is how many pairwise distances the clustering loop
// computes between context checks. The Θ(n²) loop is the reason LKE cannot
// finish large inputs (Finding 3), so it is exactly the loop a deadline must
// be able to interrupt.
const cancelCheckStride = 8192

// Parse implements core.Parser.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser, checking ctx inside the Θ(n²) clustering
// loop so an over-budget parse cancels promptly.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	if len(msgs) == 0 {
		return nil, core.ErrNoMessages
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("lke: %w", err)
	}
	if p.opts.MaxMessages > 0 && len(msgs) > p.opts.MaxMessages {
		return nil, fmt.Errorf("%w: %d messages > limit %d", ErrTooLarge, len(msgs), p.opts.MaxMessages)
	}
	sp := p.opts.Telemetry.StartParse(ctx, "lke", len(msgs))
	defer sp.End()
	n := len(msgs)
	stage := sp.Child("threshold")
	threshold := p.opts.Threshold
	if threshold <= 0 {
		threshold = p.autoThreshold(msgs)
	}
	stage.End()

	// Step 1: aggressive single-link clustering — any pair below the
	// threshold merges the two clusters (§IV-B discusses how this strategy
	// collapses HPC into one cluster).
	stage = sp.Child("cluster")
	uf := cluster.NewUnionFind(n)
	sinceCheck := 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if sinceCheck++; sinceCheck >= cancelCheckStride {
				sinceCheck = 0
				if err := ctx.Err(); err != nil {
					return nil, fmt.Errorf("lke: clustering: %w", err)
				}
			}
			if uf.Find(i) == uf.Find(j) {
				continue
			}
			d := cluster.WeightedEditDistance(msgs[i].Tokens, msgs[j].Tokens, p.opts.Nu)
			if d <= threshold {
				uf.Union(i, j)
			}
		}
	}

	stage.End()

	// Step 2: cluster splitting by heuristic rules.
	stage = sp.Child("split")
	var final [][]int
	for _, comp := range uf.Components() {
		final = append(final, p.split(comp, msgs, 0)...)
	}
	stage.End()

	// Step 3: template generation.
	stage = sp.Child("templates")
	defer stage.End()
	res := &core.ParseResult{Assignment: make([]int, n)}
	for idx, members := range final {
		seqs := make([][]string, len(members))
		for j, m := range members {
			seqs[j] = msgs[m].Tokens
		}
		res.Templates = append(res.Templates, core.Template{
			ID:     fmt.Sprintf("LKE-%d", idx+1),
			Tokens: core.TemplateFromCluster(seqs),
		})
		for _, m := range members {
			res.Assignment[m] = idx
		}
	}
	return res, nil
}

// autoThreshold samples pairwise distances and separates them with 2-means.
func (p *Parser) autoThreshold(msgs []core.LogMessage) float64 {
	n := len(msgs)
	rng := rand.New(rand.NewSource(p.opts.Seed))
	pairs := thresholdSamplePairs
	if full := n * (n - 1) / 2; full < pairs {
		pairs = full
	}
	ds := make([]float64, 0, pairs)
	if n*(n-1)/2 == pairs {
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				ds = append(ds, cluster.WeightedEditDistance(msgs[i].Tokens, msgs[j].Tokens, p.opts.Nu))
			}
		}
	} else {
		for len(ds) < pairs {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			ds = append(ds, cluster.WeightedEditDistance(msgs[i].Tokens, msgs[j].Tokens, p.opts.Nu))
		}
	}
	t := cluster.TwoMeansThreshold(ds)
	if t <= 0 {
		// Degenerate sample (e.g. all messages identical): any positive
		// threshold below the smallest inter-cluster distance works.
		t = 0.05
	}
	return t
}

// split recursively applies the cluster-splitting rule. depth caps
// pathological recursion.
func (p *Parser) split(members []int, msgs []core.LogMessage, depth int) [][]int {
	if len(members) < 2 || depth > 16 {
		return [][]int{members}
	}
	// Consider positions up to the shortest member; count distinct values.
	shortest := len(msgs[members[0]].Tokens)
	for _, m := range members {
		if l := len(msgs[m].Tokens); l < shortest {
			shortest = l
		}
	}
	if shortest == 0 {
		return [][]int{members}
	}
	bestPos, bestCard := -1, int(^uint(0)>>1)
	limit := int(p.opts.SplitRatio * float64(len(members)))
	for pos := 0; pos < shortest; pos++ {
		seen := make(map[string]struct{})
		for _, m := range members {
			seen[msgs[m].Tokens[pos]] = struct{}{}
		}
		card := len(seen)
		if card > 1 && card <= limit && card < bestCard {
			bestPos, bestCard = pos, card
		}
	}
	if bestPos < 0 {
		return [][]int{members}
	}
	groups := make(map[string][]int, bestCard)
	var order []string
	for _, m := range members {
		w := msgs[m].Tokens[bestPos]
		if _, ok := groups[w]; !ok {
			order = append(order, w)
		}
		groups[w] = append(groups[w], m)
	}
	sort.Strings(order)
	var out [][]int
	for _, w := range order {
		out = append(out, p.split(groups[w], msgs, depth+1)...)
	}
	return out
}
