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
	"fmt"
	"strings"

	"logparse/internal/core"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/iplom"
	"logparse/internal/parsers/lke"
	"logparse/internal/parsers/logsig"
	"logparse/internal/parsers/slct"
	"logparse/internal/parsers/spell"
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
// values. See the paper's §II-B for what each knob controls.
type Options struct {
	// Seed drives randomised algorithms (LKE threshold sampling, LogSig
	// initialisation).
	Seed int64

	// Support is SLCT's absolute support threshold; SupportFrac expresses
	// it as a fraction of the input when Support is 0.
	Support     int
	SupportFrac float64

	// FileSupport, PartitionSupport, LowerBound, UpperBound,
	// ClusterGoodness, VariableRatio and MappingRatio are IPLoM's
	// thresholds.
	FileSupport      float64
	PartitionSupport float64
	LowerBound       float64
	UpperBound       float64
	ClusterGoodness  float64
	VariableRatio    float64
	MappingRatio     float64

	// Threshold, Nu, SplitRatio and MaxMessages configure LKE. MaxMessages
	// guards LKE's Θ(n²) clustering; Parse fails beyond it.
	Threshold   float64
	Nu          float64
	SplitRatio  float64
	MaxMessages int

	// NumGroups is LogSig's k (required for LogSig); MaxIterations caps
	// its local search; Restarts reruns it from several initialisations
	// keeping the highest-potential solution.
	NumGroups     int
	MaxIterations int
	Restarts      int

	// Depth, SimThreshold and MaxChildren configure Drain's prefix tree
	// (tree depth, leaf similarity threshold, per-node fan-out cap).
	Depth        int
	SimThreshold float64
	MaxChildren  int

	// Tau is Spell's LCS acceptance threshold in (0,1].
	Tau float64

	// Telemetry, when non-nil, instruments the built parser with stage
	// spans, parse counters and duration histograms (see NewTelemetry).
	// Nil — the zero value — leaves the parser uninstrumented at zero
	// cost.
	Telemetry *Telemetry
}

// Algorithms lists the available parser names: the paper's four in its
// order, then the streaming-native additions.
func Algorithms() []string { return []string{"SLCT", "IPLoM", "LKE", "LogSig", "Drain", "Spell"} }

// NewParser builds a parser by algorithm name (case-insensitive).
func NewParser(algorithm string, opts Options) (Parser, error) {
	switch strings.ToLower(algorithm) {
	case "slct":
		return slct.New(slct.Options{
			Support:     opts.Support,
			SupportFrac: opts.SupportFrac,
			Telemetry:   opts.Telemetry,
		}), nil
	case "iplom":
		return iplom.New(iplom.Options{
			FileSupport:      opts.FileSupport,
			PartitionSupport: opts.PartitionSupport,
			LowerBound:       opts.LowerBound,
			UpperBound:       opts.UpperBound,
			ClusterGoodness:  opts.ClusterGoodness,
			VariableRatio:    opts.VariableRatio,
			MappingRatio:     opts.MappingRatio,
			Telemetry:        opts.Telemetry,
		}), nil
	case "lke":
		return lke.New(lke.Options{
			Threshold:   opts.Threshold,
			Nu:          opts.Nu,
			SplitRatio:  opts.SplitRatio,
			Seed:        opts.Seed,
			MaxMessages: opts.MaxMessages,
			Telemetry:   opts.Telemetry,
		}), nil
	case "logsig":
		if opts.NumGroups <= 0 {
			return nil, fmt.Errorf("logparse: LogSig requires Options.NumGroups > 0")
		}
		return logsig.New(logsig.Options{
			NumGroups:     opts.NumGroups,
			MaxIterations: opts.MaxIterations,
			Seed:          opts.Seed,
			Restarts:      opts.Restarts,
			Telemetry:     opts.Telemetry,
		}), nil
	case "drain":
		return drain.New(drain.Options{
			Depth:        opts.Depth,
			SimThreshold: opts.SimThreshold,
			MaxChildren:  opts.MaxChildren,
			Telemetry:    opts.Telemetry,
		}), nil
	case "spell":
		return spell.New(spell.Options{
			Tau:       opts.Tau,
			Telemetry: opts.Telemetry,
		}), nil
	default:
		return nil, fmt.Errorf("logparse: unknown algorithm %q (want one of %s)",
			algorithm, strings.Join(Algorithms(), ", "))
	}
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
