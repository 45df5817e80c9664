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
	"logparse/internal/parsers"
	"logparse/internal/telemetry"
)

// ParserNames lists the four studied parsers in the paper's order: the
// paper's tables and figures sweep exactly these.
var ParserNames = parsers.Names(func(r *parsers.Row) bool { return r.Paper })

// StreamingNames lists the streaming-native parsers added beyond the
// paper's four. They are batch-capable (Factory builds them like any other
// parser) but their defining mode is online learning, covered by the
// conformance suite's online-vs-batch equivalence cells.
var StreamingNames = parsers.Names(func(r *parsers.Row) bool { return r.Online != nil })

// lkeDefaultCap bounds LKE input sizes: beyond it the Θ(n²) clustering does
// not finish in reasonable time on one core, mirroring the missing LKE
// points in Fig. 2 ("may cause days or even weeks").
const lkeDefaultCap = 4000

// Factory returns the eval.ParserFactory for a parser on a dataset (both
// case-insensitive), with the dataset's tuned parameters (its row's Tuned)
// baked in.
func Factory(parser, dataset string) (eval.ParserFactory, error) {
	return FactoryWith(parser, dataset, nil)
}

// FactoryWith is Factory with a telemetry handle threaded into the built
// parsers (nil disables instrumentation — the Factory behaviour). The
// conformance suite uses it to assert parse results are identical with
// telemetry on and off.
func FactoryWith(parser, dataset string, tel *telemetry.Handle) (eval.ParserFactory, error) {
	_, _, f, err := resolve(parser, dataset, tel)
	return f, err
}

// resolve looks up a parser's and a dataset's rows (both case-insensitive)
// and builds the parser's factory on the dataset: the dataset's tuned
// parameters and the factory's seed on one Options, of which each parser
// reads only its own fields.
func resolve(parser, dataset string, tel *telemetry.Handle) (*parsers.Row, *gen.Catalog, eval.ParserFactory, error) {
	row, err := parsers.ByName(parser)
	if err != nil {
		return nil, nil, nil, err
	}
	cat, err := gen.ByName(dataset)
	if err != nil {
		return nil, nil, nil, err
	}
	opts := parsers.Options{
		SupportFrac: cat.Tuned.SLCTSupportFrac,
		SplitRatio:  cat.Tuned.LKESplitRatio,
		NumGroups:   cat.Tuned.LogSigGroups,
		MaxMessages: lkeDefaultCap,
		Telemetry:   tel,
	}
	if _, err := row.New(opts); err != nil {
		return nil, nil, nil, fmt.Errorf("experiments: %s on %s: %w", row.Name, cat.Name, err)
	}
	return row, cat, func(seed int64) core.Parser {
		o := opts
		o.Seed = seed
		p, _ := row.New(o) // the options were accepted above
		return p
	}, nil
}
