package experiments

import (
	"fmt"
	"io"

	"logparse/internal/eval"
	"logparse/internal/gen"
	"logparse/internal/telemetry"
)

// Options configures the experiment drivers. The zero value is usable and
// targets a single-core machine; the paper-scale settings are reachable via
// the fields.
type Options struct {
	// Sample is the per-dataset sample size for Table II (paper: 2,000).
	Sample int
	// Runs is the repetition count for randomised parsers (paper: 10).
	Runs int
	// Seed seeds dataset generation.
	Seed int64
	// Telemetry, when non-nil, instruments every parser the drivers build,
	// so a whole experiment run accumulates stage timings and parse
	// counters into one registry (cmd/logeval -report).
	Telemetry *telemetry.Handle
}

func (o Options) withDefaults() Options {
	if o.Sample <= 0 {
		o.Sample = 2000
	}
	if o.Runs <= 0 {
		o.Runs = 3
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
	return o
}

// Table1 reproduces Table I: the dataset summary.
func Table1() ([]gen.Summary, error) {
	rows := make([]gen.Summary, 0, len(gen.Names))
	for _, name := range gen.Names {
		s, err := gen.Summarize(name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, s)
	}
	return rows, nil
}

// FormatTable1 prints Table I rows.
func FormatTable1(w io.Writer, rows []gen.Summary) {
	fmt.Fprintf(w, "%-10s %12s %10s %8s\n", "System", "#Logs", "Length", "#Events")
	for _, r := range rows {
		fmt.Fprintf(w, "%-10s %12d %4d~%-5d %8d\n", r.System, r.NumLogs, r.MinLength, r.MaxLength, r.NumEvents)
	}
}

// Table2Cell is one cell of Table II: a parser's accuracy on a dataset,
// raw and preprocessed.
type Table2Cell struct {
	Dataset      string
	Parser       string
	Raw          float64
	Preprocessed float64
	// HasPreprocessed is false for a dataset with no domain-knowledge
	// rules, Proxifier (the paper prints "-").
	HasPreprocessed bool
}

// Table2 reproduces Table II: parsing accuracy (pairwise F-measure) of the
// four parsers on 2k samples of the five datasets, raw and preprocessed.
func Table2(opts Options) ([]Table2Cell, error) {
	opts = opts.withDefaults()
	var cells []Table2Cell
	for _, parser := range ParserNames {
		for _, dataset := range gen.Names {
			cell, err := table2Cell(parser, dataset, opts)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell)
		}
	}
	return cells, nil
}

func table2Cell(parser, dataset string, opts Options) (Table2Cell, error) {
	row, cat, f, err := resolve(parser, dataset, opts.Telemetry)
	if err != nil {
		return Table2Cell{}, err
	}
	cell := Table2Cell{Dataset: cat.Name, Parser: row.Name}
	accOpts := eval.AccuracyOptions{
		Sample:   opts.Sample,
		Runs:     row.Runs(opts.Runs),
		DataSeed: opts.Seed,
	}
	raw, err := eval.Accuracy(cat, f, accOpts)
	if err != nil {
		return Table2Cell{}, fmt.Errorf("table2 %s/%s raw: %w", parser, dataset, err)
	}
	cell.Raw = raw.F
	if len(cat.Rules) > 0 {
		accOpts.Preprocess = true
		pp, err := eval.Accuracy(cat, f, accOpts)
		if err != nil {
			return Table2Cell{}, fmt.Errorf("table2 %s/%s preprocessed: %w", parser, dataset, err)
		}
		cell.Preprocessed = pp.F
		cell.HasPreprocessed = true
	}
	return cell, nil
}

// FormatTable2 prints Table II in the paper's raw/preprocessed layout.
func FormatTable2(w io.Writer, cells []Table2Cell) {
	fmt.Fprintf(w, "%-8s", "")
	for _, d := range gen.Names {
		fmt.Fprintf(w, " %11s", d)
	}
	fmt.Fprintln(w)
	for _, parser := range ParserNames {
		fmt.Fprintf(w, "%-8s", parser)
		for _, d := range gen.Names {
			for _, c := range cells {
				if c.Parser != parser || c.Dataset != d {
					continue
				}
				if c.HasPreprocessed {
					fmt.Fprintf(w, "   %.2f/%.2f", c.Raw, c.Preprocessed)
				} else {
					fmt.Fprintf(w, "   %.2f/-  ", c.Raw)
				}
			}
		}
		fmt.Fprintln(w)
	}
}

// Fig2Sizes returns the default efficiency sweep per dataset: a geometric
// ladder like the paper's (BGL400 … BGL4m), capped for a single-core box.
// The maximum is capped further for the quadratic LKE inside the parser
// itself, which reports those points as skipped.
func Fig2Sizes(maxSize int) []int {
	sizes := []int{400, 2000, 10000, 40000, 200000, 1000000}
	out := make([]int, 0, len(sizes))
	for _, s := range sizes {
		if maxSize > 0 && s > maxSize {
			break
		}
		out = append(out, s)
	}
	return out
}

// Fig2 reproduces one dataset panel of Fig. 2: running time of the four
// parsers as the number of log messages grows.
func Fig2(dataset string, sizes []int, opts Options) ([]eval.EfficiencyPoint, error) {
	return Fig2Parsers(dataset, ParserNames, sizes, opts)
}

// Fig2Parsers is Fig2 over the named parsers (any case, Drain and Spell
// included), in the order given — used for paper-scale sweeps where only
// the linear parsers are feasible.
func Fig2Parsers(dataset string, names []string, sizes []int, opts Options) ([]eval.EfficiencyPoint, error) {
	opts = opts.withDefaults()
	var points []eval.EfficiencyPoint
	for _, parser := range names {
		_, cat, f, err := resolve(parser, dataset, opts.Telemetry)
		if err != nil {
			return nil, err
		}
		ps, err := eval.Efficiency(cat, f, sizes, opts.Seed)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s/%s: %w", parser, dataset, err)
		}
		points = append(points, ps...)
	}
	return points, nil
}

// FormatFig2 prints a Fig. 2 panel as a size × parser table of runtimes,
// one column per parser the points hold, in run order.
func FormatFig2(w io.Writer, dataset string, points []eval.EfficiencyPoint) {
	names := axis(points, func(p eval.EfficiencyPoint) string { return p.Parser })
	fmt.Fprintf(w, "Fig.2 (%s): running time\n%-10s", dataset, "#lines")
	for _, p := range names {
		fmt.Fprintf(w, " %12s", p)
	}
	fmt.Fprintln(w)
	for _, n := range axis(points, func(p eval.EfficiencyPoint) int { return p.Lines }) {
		fmt.Fprintf(w, "%-10d", n)
		for _, parser := range names {
			cell := "-"
			for _, pt := range points {
				if pt.Parser == parser && pt.Lines == n {
					if pt.Skipped {
						cell = "skip"
					} else {
						cell = pt.Elapsed.Round(pt.Elapsed / 100).String()
					}
				}
			}
			fmt.Fprintf(w, " %12s", cell)
		}
		fmt.Fprintln(w)
	}
}

// Fig3 reproduces one dataset panel of Fig. 3: accuracy as volume grows
// with parameters frozen from the 2k tuning sample.
func Fig3(dataset string, sizes []int, opts Options) ([]eval.AccuracyResult, error) {
	return Fig3Parsers(dataset, ParserNames, sizes, opts)
}

// Fig3Parsers is Fig3 over the named parsers, as Fig2Parsers.
func Fig3Parsers(dataset string, names []string, sizes []int, opts Options) ([]eval.AccuracyResult, error) {
	opts = opts.withDefaults()
	var rows []eval.AccuracyResult
	for _, parser := range names {
		row, cat, f, err := resolve(parser, dataset, opts.Telemetry)
		if err != nil {
			return nil, err
		}
		rs, err := eval.AccuracyVsSize(cat, f, sizes, eval.AccuracyOptions{
			Runs:     row.Runs(opts.Runs),
			DataSeed: opts.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("fig3 %s/%s: %w", parser, dataset, err)
		}
		rows = append(rows, rs...)
	}
	return rows, nil
}

// FormatFig3 prints a Fig. 3 panel as a size × parser table of F-measures,
// one column per parser the rows hold, in run order.
func FormatFig3(w io.Writer, dataset string, rows []eval.AccuracyResult, sizes []int) {
	names := axis(rows, func(r eval.AccuracyResult) string { return r.Parser })
	fmt.Fprintf(w, "Fig.3 (%s): parsing accuracy\n%-10s", dataset, "#lines")
	for _, p := range names {
		fmt.Fprintf(w, " %8s", p)
	}
	fmt.Fprintln(w)
	for _, n := range sizes {
		fmt.Fprintf(w, "%-10d", n)
		for _, parser := range names {
			cell := "-"
			for _, r := range rows {
				if r.Parser == parser && r.Sample == n {
					cell = fmt.Sprintf("%.2f", r.F)
				}
			}
			fmt.Fprintf(w, " %8s", cell)
		}
		fmt.Fprintln(w)
	}
}

// axis returns the distinct keys of xs in first-seen order: the sizes or
// the parsers a sweep ran, in run order.
func axis[T any, K comparable](xs []T, key func(T) K) []K {
	var out []K
	seen := make(map[K]bool)
	for _, x := range xs {
		if k := key(x); !seen[k] {
			seen[k] = true
			out = append(out, k)
		}
	}
	return out
}
