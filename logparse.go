// Package logparse is an open-source toolkit of automated log parsers and
// the evaluation/log-mining machinery around them, reproducing "An
// Evaluation Study on Log Parsing and Its Use in Log Mining" (He, Zhu, He,
// Li, Lyu — DSN 2016).
//
// The toolkit packages six widely used log parsers behind one interface:
//
//   - SLCT   (Vaarandi, IPOM 2003) — frequent-word clustering
//   - IPLoM  (Makanju et al., KDD 2009) — iterative hierarchical partitioning
//   - LKE    (Fu et al., ICDM 2009) — weighted-edit-distance clustering
//   - LogSig (Tang et al., CIKM 2011) — message-signature local search
//   - Drain  (He et al., ICWS 2017) — fixed-depth prefix-tree clustering
//   - Spell  (Du & Li, ICDM 2016) — LCS-based streaming template extraction
//
// Drain and Spell are streaming-native: besides the batch Parse surface
// they expose online learners (see NewOnlineParser in streaming.go) that
// the stream engine runs directly on its ingest hot path, learning
// per-line with no retrain cycle.
//
// plus the five evaluation datasets of the paper (as synthetic generators
// with exact ground truth), pairwise F-measure scoring, preprocessing
// rules, and the PCA-based anomaly-detection pipeline of Xu et al.
// (SOSP 2009) used to study how parsing quality affects log mining.
//
// # Quickstart
//
//	msgs, _ := logparse.Dataset("HDFS")            // built-in dataset
//	sample := msgs.Generate(1, 2000)               // 2k labelled lines
//	parser, _ := logparse.NewParser("IPLoM", logparse.Options{})
//	result, _ := parser.Parse(sample)
//	for _, t := range result.Templates {
//		fmt.Println(t.ID, t)
//	}
//
// # Cancellation and fault tolerance
//
// Every Parser also implements ParseCtx(ctx, msgs), which checks ctx
// cooperatively inside each algorithm's hot loop (LKE's Θ(n²) clustering,
// LogSig's local-search sweeps, IPLoM's partition recursion, SLCT's two
// passes), so a deadline or cancellation interrupts even a parse that
// would otherwise run for hours. Parse(msgs) is shorthand for ParseCtx
// with context.Background(). For unattended production use, wrap parsers
// in a RobustParser (see NewRobustParser): panic isolation, per-tier
// deadlines, and a degradation chain.
package logparse

import (
	"logparse/internal/core"
	"logparse/internal/parsers"
)

// Core model types, re-exported from the toolkit's data model.
type (
	// Message is a single raw log message.
	Message = core.LogMessage
	// Template is an extracted log event with wildcards at variable
	// positions.
	Template = core.Template
	// Result is a parser's output: templates plus per-message assignment.
	Result = core.ParseResult
	// Parser is the interface implemented by every algorithm.
	Parser = core.Parser
)

// Wildcard is the variable-position marker in templates.
const Wildcard = core.Wildcard

// OutlierID marks messages a parser left unassigned.
const OutlierID = core.OutlierID

// ErrNoMessages is returned by parsers on empty input.
var ErrNoMessages = core.ErrNoMessages

// Options carries the union of all parser parameters; each algorithm reads
// only its own fields and falls back to its published defaults for zero
// values. See the paper's §II-B for what each knob controls, and
// NewTelemetry for its Telemetry handle.
type Options = parsers.Options

// Algorithms lists the available parser names: the paper's four in its
// order, then the streaming-native additions.
func Algorithms() []string { return parsers.Names(nil) }

// NewParser builds a parser by algorithm name (case-insensitive); an
// unknown name's error lists Algorithms.
func NewParser(algorithm string, opts Options) (Parser, error) {
	row, err := parsers.ByName(algorithm)
	if err != nil {
		return nil, err
	}
	return row.New(opts)
}

// Tokenize splits raw message content into the toolkit's canonical tokens.
func Tokenize(content string) []string { return core.Tokenize(content) }

// CanonicalResult returns a parse result in canonical form — templates
// sorted by rendered string, re-identified as "T1".."Tn", assignments
// remapped — so that results from different execution modes (serial,
// sharded, robust-chain) of the same algorithm compare byte-identically
// and conformance digests (see internal/conform and cmd/conformgen) are
// stable. Shorthand for res.Canonical().
func CanonicalResult(res *Result) *Result { return res.Canonical() }
