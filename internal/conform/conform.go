// Package conform is the toolkit's correctness net: machine-checked
// conformance of every parser across execution modes, datasets and seeds.
// The paper's contribution is an evaluation, so its value stands or falls
// on the parsers being faithful and the scoring machinery being correct —
// follow-up benchmarks (Zhu et al., ICSE'19; Jiang et al., 2023) show that
// subtle parser implementation drift silently changes reported accuracy.
//
// The package provides four layers, each exercised by its own test file:
//
//   - differential oracles: every parser, over every internal/gen dataset,
//     must produce the same clustering through every execution path
//     (Parse, ParseCtx, a robust degradation chain), must be deterministic
//     run-to-run and — for the seedless algorithms — across seeds, and
//     must clear a per-dataset pairwise F-measure floor against the
//     generators' ground truth;
//   - metamorphic invariants: input permutation, corpus duplication and
//     variable-token injection must not change clusterings; the F-measure
//     and PCA-anomaly machinery must obey their algebraic symmetries;
//   - fuzz targets: native Go fuzzing over tokenization, message reading,
//     header stripping and small parses (corpora in testdata/fuzz);
//   - golden corpora: frozen digests of canonicalized parses under
//     testdata/golden, regenerated only deliberately via cmd/conformgen.
//
// The non-test code here (canonical signatures, digests, the case matrix,
// golden encoding) is shared with cmd/conformgen.
package conform

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"logparse/internal/core"
	"logparse/internal/eval"
	"logparse/internal/experiments"
	"logparse/internal/gen"
	"logparse/internal/robust"
)

// Case is one (dataset, parser) cell of the conformance matrix.
type Case struct {
	// Dataset is an internal/gen dataset name.
	Dataset string
	// Parser is one of the four algorithm names.
	Parser string
	// Seed is the dataset generation seed.
	Seed int64
	// N is the sample size. Kept small enough that the full matrix runs
	// under -race in tier-1, but large enough that support thresholds and
	// popularity skew behave like the paper's samples.
	N int
	// Floor is the minimum pairwise F-measure the parser must reach on the
	// sample (measured value minus a safety margin; a drop below it means
	// the implementation drifted, not that the data got unlucky — the
	// sample is deterministic in Seed and N).
	Floor float64
	// Seeded reports whether the algorithm consumes Options.Seed (LKE,
	// LogSig). Seedless parsers must produce identical output across
	// seeds; seeded ones must be deterministic per seed and clear Floor on
	// every tested seed.
	Seeded bool
}

// Name renders the cell name used in test and golden-file naming.
func (c Case) Name() string { return c.Dataset + "-" + c.Parser }

// Messages generates the cell's deterministic sample.
func (c Case) Messages() []core.LogMessage {
	cat, err := gen.ByName(c.Dataset)
	if err != nil {
		panic(err) // cases are a static matrix over known names
	}
	return cat.Generate(c.Seed, c.N)
}

// Factory returns the parser factory for the cell, carrying the
// per-dataset tuned parameters of the paper's protocol.
func (c Case) Factory() (eval.ParserFactory, error) {
	return experiments.Factory(c.Parser, c.Dataset)
}

// sizeFor keeps the expensive algorithms at conformance-friendly sizes:
// LKE's clustering is Θ(n²) and LogSig's local search is the slowest
// non-quadratic phase, so their cells shrink; SLCT and IPLoM are near
// linear and keep the full sample.
func sizeFor(parser string) int {
	switch parser {
	case "LKE":
		return 150
	case "LogSig":
		return 200
	default:
		return 500
	}
}

// floors carries the measured pairwise F-measure per cell minus a safety
// margin (the samples are deterministic, so a drop below a floor is
// implementation drift, not sampling noise). The low SLCT floors on HDFS
// and Zookeeper and the low LogSig floor on BGL are faithful: the paper's
// Table II reports exactly those weaknesses on raw (unpreprocessed) input.
// Regenerate the measurements with cmd/conformgen -measure.
var floors = map[string]float64{
	"BGL-SLCT":         0.95,
	"BGL-IPLoM":        0.95,
	"BGL-LKE":          0.95,
	"BGL-LogSig":       0.30,
	"HPC-SLCT":         0.95,
	"HPC-IPLoM":        0.97,
	"HPC-LKE":          0.95,
	"HPC-LogSig":       0.90,
	"Proxifier-SLCT":   0.90,
	"Proxifier-IPLoM":  0.70,
	"Proxifier-LKE":    0.65,
	"Proxifier-LogSig": 0.88,
	"HDFS-SLCT":        0.22,
	"HDFS-IPLoM":       0.95,
	"HDFS-LKE":         0.80,
	"HDFS-LogSig":      0.78,
	"Zookeeper-SLCT":   0.34,
	"Zookeeper-IPLoM":  0.95,
	"Zookeeper-LKE":    0.95,
	"Zookeeper-LogSig": 0.62,

	// Streaming-native parsers, over the paper datasets and the extended
	// catalogues. The very low Proxifier-Drain floor is faithful: Drain
	// routes by leading tokens, and Proxifier messages lead with a
	// variable program name, a known Drain weakness on that system.
	"BGL-Drain":         0.97,
	"BGL-Spell":         0.97,
	"HPC-Drain":         0.97,
	"HPC-Spell":         0.97,
	"Proxifier-Drain":   0.15,
	"Proxifier-Spell":   0.70,
	"HDFS-Drain":        0.95,
	"HDFS-Spell":        0.95,
	"Zookeeper-Drain":   0.97,
	"Zookeeper-Spell":   0.97,
	"Hadoop-Drain":      0.90,
	"Hadoop-Spell":      0.90,
	"Spark-Drain":       0.92,
	"Spark-Spell":       0.92,
	"Thunderbird-Drain": 0.95,
	"Thunderbird-Spell": 0.93,
}

// Cases returns the full conformance matrix: the paper's four parsers over
// its five datasets, plus the streaming-native Drain and Spell over every
// dataset including the extended catalogues (Hadoop, Spark, Thunderbird).
func Cases() []Case {
	var cases []Case
	for _, dataset := range gen.Names {
		for _, parser := range experiments.ParserNames {
			cases = append(cases, newCase(dataset, parser))
		}
	}
	for _, dataset := range gen.AllNames() {
		for _, parser := range experiments.StreamingNames {
			cases = append(cases, newCase(dataset, parser))
		}
	}
	return cases
}

// newCase builds one cell with its measured floors attached.
func newCase(dataset, parser string) Case {
	c := Case{
		Dataset: dataset,
		Parser:  parser,
		Seed:    42,
		N:       sizeFor(parser),
		Seeded:  parser == "LKE" || parser == "LogSig",
	}
	c.Floor = floors[c.Name()]
	return c
}

// RobustParser wraps the cell's parser in a single-tier robust chain — the
// production execution path (panic isolation, deadline, attribution) that
// the differential oracle requires to be a behavioral no-op.
func (c Case) RobustParser(algSeed int64) (core.Parser, error) {
	factory, err := c.Factory()
	if err != nil {
		return nil, err
	}
	return robust.Wrap(robust.Policy{}, factory(algSeed))
}

// Signature renders the clustering of a parse result in canonical form:
// one line per cluster listing sorted member indices, outliers as
// singleton clusters, lines sorted. Two results with the same signature
// cluster the messages identically, regardless of template naming or
// ordering — the equality differential oracles compare.
func Signature(res *core.ParseResult) string {
	return MappedSignature(res, nil)
}

// MappedSignature is Signature with member indices translated through
// perm: message j of the result corresponds to original message perm[j].
// The permutation metamorphic tests use it to compare a permuted parse
// against the original identity space. A nil perm is the identity.
func MappedSignature(res *core.ParseResult, perm []int) string {
	clusters := make(map[int][]int)
	var outliers []int
	for j, a := range res.Assignment {
		orig := j
		if perm != nil {
			orig = perm[j]
		}
		if a == core.OutlierID {
			outliers = append(outliers, orig)
			continue
		}
		clusters[a] = append(clusters[a], orig)
	}
	lines := make([]string, 0, len(clusters)+len(outliers))
	for _, members := range clusters {
		sort.Ints(members)
		lines = append(lines, joinInts(members))
	}
	for _, o := range outliers {
		lines = append(lines, "outlier:"+strconv.Itoa(o))
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

func joinInts(xs []int) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

// MergeEqualTemplates returns a copy of res with clusters that render the
// same template string unified into one. A parse can emit distinct groups
// with identical signatures (LogSig's several "*" noise groups), while a
// template matcher replaying that set types each line into one of them, so
// parse-versus-replay oracles compare in this merged space. Merging is
// idempotent, so applying it to an already-merged result is a no-op.
func MergeEqualTemplates(res *core.ParseResult) *core.ParseResult {
	out := &core.ParseResult{Assignment: make([]int, len(res.Assignment))}
	index := make(map[string]int)
	remap := make([]int, len(res.Templates))
	for t, tmpl := range res.Templates {
		key := tmpl.String()
		m, ok := index[key]
		if !ok {
			m = len(out.Templates)
			index[key] = m
			out.Templates = append(out.Templates, core.Template{
				ID:     tmpl.ID,
				Tokens: append([]string(nil), tmpl.Tokens...),
			})
		}
		remap[t] = m
	}
	for i, a := range res.Assignment {
		if a == core.OutlierID {
			out.Assignment[i] = core.OutlierID
			continue
		}
		out.Assignment[i] = remap[a]
	}
	return out
}

// TemplateStrings returns the sorted rendered template strings of a
// result — the template set differential oracles compare across modes
// that rename or reorder templates.
func TemplateStrings(res *core.ParseResult) []string {
	out := make([]string, len(res.Templates))
	for i, t := range res.Templates {
		out[i] = t.String()
	}
	sort.Strings(out)
	return out
}

// Digest is the SHA-256 over a result's canonical form: sorted template
// strings plus the clustering signature. It is what golden files freeze.
func Digest(res *core.ParseResult) string {
	h := sha256.New()
	for _, t := range TemplateStrings(res) {
		h.Write([]byte(t))
		h.Write([]byte{'\n'})
	}
	h.Write([]byte{0})
	h.Write([]byte(Signature(res)))
	return hex.EncodeToString(h.Sum(nil))
}

// MessagesDigest is the SHA-256 over the annotated content of generated
// messages; golden tests use it to distinguish generator drift from
// parser drift.
func MessagesDigest(msgs []core.LogMessage) string {
	h := sha256.New()
	for _, m := range msgs {
		h.Write([]byte(m.TruthID))
		h.Write([]byte{'\t'})
		h.Write([]byte(m.Content))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// FMeasureAgainstTruth scores a result against the generator ground
// truth.
func FMeasureAgainstTruth(res *core.ParseResult, msgs []core.LogMessage) (float64, error) {
	truth := make([]string, len(msgs))
	for i := range msgs {
		truth[i] = msgs[i].TruthID
	}
	m, err := eval.FMeasure(res.ClusterIDs(), truth)
	if err != nil {
		return 0, err
	}
	return m.F, nil
}

// SameClustering reports whether two results over the same messages
// cluster them identically; diff explains the first difference found.
func SameClustering(a, b *core.ParseResult) (same bool, diff string) {
	sa, sb := Signature(a), Signature(b)
	if sa == sb {
		return true, ""
	}
	la, lb := strings.Split(sa, "\n"), strings.Split(sb, "\n")
	seen := make(map[string]bool, len(la))
	for _, l := range la {
		seen[l] = true
	}
	for _, l := range lb {
		if !seen[l] {
			return false, fmt.Sprintf("cluster {%s} present only in second result (%d vs %d clusters)", l, len(la), len(lb))
		}
	}
	for _, l := range lb {
		delete(seen, l)
	}
	for _, l := range la {
		if seen[l] {
			return false, fmt.Sprintf("cluster {%s} present only in first result (%d vs %d clusters)", l, len(la), len(lb))
		}
	}
	return false, "clusterings differ"
}
