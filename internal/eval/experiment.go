package eval

import (
	"errors"
	"fmt"
	"time"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/parsers/lke"
	"logparse/internal/tokenize"
)

// ParserFactory builds a parser instance for one run. Randomised parsers
// (LKE, LogSig) use the seed for their initialisation; deterministic ones
// ignore it. The paper runs randomised parsers 10 times and averages.
type ParserFactory func(seed int64) core.Parser

// AccuracyOptions configures one accuracy measurement.
type AccuracyOptions struct {
	// Sample is the number of log lines to draw (the paper samples 2k).
	Sample int
	// Preprocess applies the dataset's domain-knowledge rules first.
	Preprocess bool
	// Runs is the number of repetitions with different seeds (≥1).
	Runs int
	// DataSeed seeds dataset generation, so raw/preprocessed runs see the
	// same lines.
	DataSeed int64
}

// AccuracyResult is one cell of Table II.
type AccuracyResult struct {
	Dataset    string
	Parser     string
	Preprocess bool
	F          float64 // mean F-measure over runs
	Precision  float64
	Recall     float64
	Runs       int
	// Sample is the number of lines the measurement used.
	Sample int
}

// Accuracy measures a parser's mean pairwise F-measure on a dataset sample,
// reproducing one cell of Table II.
func Accuracy(cat *gen.Catalog, factory ParserFactory, opts AccuracyOptions) (AccuracyResult, error) {
	if opts.Sample <= 0 {
		return AccuracyResult{}, fmt.Errorf("eval: accuracy sample must be positive, got %d", opts.Sample)
	}
	if opts.Runs <= 0 {
		opts.Runs = 1
	}
	msgs := cat.Generate(opts.DataSeed, opts.Sample)
	if opts.Preprocess {
		msgs = tokenize.NewPreprocessor(cat.Rules...).Apply(msgs)
	}
	truth := make([]string, len(msgs))
	for i := range msgs {
		truth[i] = msgs[i].TruthID
	}
	res := AccuracyResult{Dataset: cat.Name, Preprocess: opts.Preprocess, Runs: opts.Runs, Sample: opts.Sample}
	for run := 0; run < opts.Runs; run++ {
		parser := factory(int64(run) + 1)
		res.Parser = parser.Name()
		parsed, err := parser.Parse(msgs)
		if err != nil {
			return AccuracyResult{}, fmt.Errorf("eval: %s on %s: %w", parser.Name(), cat.Name, err)
		}
		if err := parsed.Validate(len(msgs)); err != nil {
			return AccuracyResult{}, err
		}
		m, err := FMeasure(parsed.ClusterIDs(), truth)
		if err != nil {
			return AccuracyResult{}, err
		}
		res.F += m.F
		res.Precision += m.Precision
		res.Recall += m.Recall
	}
	res.F /= float64(opts.Runs)
	res.Precision /= float64(opts.Runs)
	res.Recall /= float64(opts.Runs)
	return res, nil
}

// EfficiencyPoint is one point of a Fig. 2 running-time series.
type EfficiencyPoint struct {
	Dataset string
	Parser  string
	Lines   int
	Elapsed time.Duration
	// Skipped marks sizes a parser could not handle in reasonable time;
	// Fig. 2 leaves those points unplotted for LKE.
	Skipped bool
}

// Efficiency times a parser over increasing input sizes, reproducing one
// dataset panel of Fig. 2. Sizes a parser refuses (lke.ErrTooLarge) are
// reported as skipped rather than failing the experiment.
func Efficiency(cat *gen.Catalog, factory ParserFactory, sizes []int, dataSeed int64) ([]EfficiencyPoint, error) {
	points := make([]EfficiencyPoint, 0, len(sizes))
	for _, n := range sizes {
		msgs := cat.Generate(dataSeed, n)
		parser := factory(1)
		start := time.Now()
		_, err := parser.Parse(msgs)
		elapsed := time.Since(start)
		pt := EfficiencyPoint{Dataset: cat.Name, Parser: parser.Name(), Lines: n, Elapsed: elapsed}
		if err != nil {
			if errors.Is(err, lke.ErrTooLarge) {
				pt.Skipped = true
				points = append(points, pt)
				continue
			}
			return nil, fmt.Errorf("eval: efficiency %s on %s@%d: %w", parser.Name(), cat.Name, n, err)
		}
		points = append(points, pt)
	}
	return points, nil
}

// AccuracyVsSize reproduces one dataset panel of Fig. 3: the parser's
// parameters are whatever the factory bakes in (tuned on a 2k sample), and
// accuracy is measured as volume grows.
func AccuracyVsSize(cat *gen.Catalog, factory ParserFactory, sizes []int, opts AccuracyOptions) ([]AccuracyResult, error) {
	out := make([]AccuracyResult, 0, len(sizes))
	for _, n := range sizes {
		o := opts
		o.Sample = n
		r, err := Accuracy(cat, factory, o)
		if err != nil {
			if errors.Is(err, lke.ErrTooLarge) {
				continue
			}
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
