// Package experiments contains one driver per table and figure of the
// paper's evaluation section (§IV). Each driver returns structured rows and
// has a Format function that prints them the way the paper reports them.
// The drivers are shared by cmd/logeval, cmd/loganomaly and the root-level
// benchmarks.
package experiments

import (
	"fmt"

	"logparse/internal/core"
	"logparse/internal/eval"
	"logparse/internal/gen"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/iplom"
	"logparse/internal/parsers/lke"
	"logparse/internal/parsers/logsig"
	"logparse/internal/parsers/slct"
	"logparse/internal/parsers/spell"
	"logparse/internal/telemetry"
)

// ParserNames lists the four studied parsers in the paper's order. Frozen:
// the paper's tables and figures sweep exactly these four, so the
// streaming-native additions live in StreamingNames instead.
var ParserNames = []string{"SLCT", "IPLoM", "LKE", "LogSig"}

// StreamingNames lists the streaming-native parsers added beyond the
// paper's four (He et al., ICWS'17 Drain; Du & Li, ICDM'16 Spell). They are
// batch-capable (Factory builds them like any other parser) but their
// defining mode is online learning, covered by the conformance suite's
// online-vs-batch equivalence cells.
var StreamingNames = []string{"Drain", "Spell"}

// lkeDefaultCap bounds LKE input sizes: beyond it the Θ(n²) clustering does
// not finish in reasonable time on one core, mirroring the missing LKE
// points in Fig. 2 ("may cause days or even weeks").
const lkeDefaultCap = 4000

// Factory returns the eval.ParserFactory for a parser on a dataset, with
// the dataset's tuned parameters (its row's Tuned) baked in.
func Factory(parser, dataset string) (eval.ParserFactory, error) {
	return FactoryWith(parser, dataset, nil)
}

// FactoryWith is Factory with a telemetry handle threaded into the built
// parsers (nil disables instrumentation — the Factory behaviour). The
// conformance suite uses it to assert parse results are identical with
// telemetry on and off.
func FactoryWith(parser, dataset string, tel *telemetry.Handle) (eval.ParserFactory, error) {
	cat, err := gen.ByName(dataset)
	if err != nil {
		return nil, err
	}
	p := cat.Tuned
	switch parser {
	case "SLCT":
		return func(int64) core.Parser {
			return slct.New(slct.Options{SupportFrac: p.SLCTSupportFrac, Telemetry: tel})
		}, nil
	case "IPLoM":
		return func(int64) core.Parser {
			return iplom.New(iplom.Options{Telemetry: tel})
		}, nil
	case "LKE":
		return func(seed int64) core.Parser {
			return lke.New(lke.Options{
				Seed:        seed,
				SplitRatio:  p.LKESplitRatio,
				MaxMessages: lkeDefaultCap,
				Telemetry:   tel,
			})
		}, nil
	case "LogSig":
		return func(seed int64) core.Parser {
			return logsig.New(logsig.Options{NumGroups: p.LogSigGroups, Seed: seed, Telemetry: tel})
		}, nil
	case "Drain":
		return func(int64) core.Parser {
			return drain.New(drain.Options{Telemetry: tel})
		}, nil
	case "Spell":
		return func(int64) core.Parser {
			return spell.New(spell.Options{Telemetry: tel})
		}, nil
	default:
		return nil, fmt.Errorf("experiments: unknown parser %q", parser)
	}
}

// runsFor returns how many repetitions a parser needs: randomised parsers
// are averaged over several seeds (the paper uses 10 runs), deterministic
// ones run once.
func runsFor(parser string, runs int) int {
	if parser == "LKE" || parser == "LogSig" {
		return runs
	}
	return 1
}
