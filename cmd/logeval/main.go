// Command logeval runs the paper's RQ1/RQ2 experiments and prints each
// table or figure in the paper's layout.
//
//	logeval -table1                 # Table I: dataset summary
//	logeval -table2 -sample 2000    # Table II: parsing accuracy raw/preprocessed
//	logeval -fig2 -max-size 40000   # Fig. 2: running time vs volume
//	logeval -fig3                   # Fig. 3: accuracy vs volume, frozen params
//	logeval -tune -dataset BGL      # Finding 4: parameter grid search
//
// Select datasets with -dataset (default: all five).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"logparse/internal/experiments"
	"logparse/internal/gen"
	"logparse/internal/parsers"
	"logparse/internal/telemetry"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "logeval:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func run() (int, error) {
	var (
		table1  = flag.Bool("table1", false, "print Table I (dataset summary)")
		table2  = flag.Bool("table2", false, "run Table II (parsing accuracy)")
		fig2    = flag.Bool("fig2", false, "run Fig. 2 (efficiency)")
		fig3    = flag.Bool("fig3", false, "run Fig. 3 (accuracy vs volume)")
		tune    = flag.Bool("tune", false, "run the Finding 4 parameter grid search")
		dataset = flag.String("dataset", "", "restrict to one dataset (default all)")
		sample  = flag.Int("sample", 2000, "Table II sample size")
		runs    = flag.Int("runs", 3, "repetitions for randomised parsers (paper: 10)")
		seed    = flag.Int64("seed", 42, "dataset generation seed")
		maxSize = flag.Int("max-size", 40000, "largest size in Fig. 2/3 sweeps")
		plot    = flag.Bool("plot", false, "render Fig. 2 panels as ASCII log-log charts")
		only    = flag.String("parsers", "", "comma-separated parsers for -fig2/-fig3, any case, Drain and Spell included (default the paper's four)")
		report  = flag.String("report", "", "write a JSON run report (stage timings, spans, metrics) to this file (- = stderr)")
	)
	flag.Parse()
	if !*table1 && !*table2 && !*fig2 && !*fig3 && !*tune {
		flag.Usage()
		return 2, fmt.Errorf("select at least one of -table1, -table2, -fig2, -fig3, -tune")
	}
	datasets := gen.Names
	if *dataset != "" {
		cat, err := gen.ByName(*dataset)
		if err != nil {
			return 2, err
		}
		datasets = []string{cat.Name}
	}
	parserList := experiments.ParserNames
	if *only != "" {
		parserList = nil
		for _, name := range strings.Split(*only, ",") {
			row, err := parsers.ByName(strings.TrimSpace(name))
			if err != nil {
				return 2, fmt.Errorf("-parsers: %w", err)
			}
			parserList = append(parserList, row.Name)
		}
	}

	var tel *telemetry.Handle
	if *report != "" {
		tel = telemetry.New()
	}
	opts := experiments.Options{Sample: *sample, Runs: *runs, Seed: *seed, Telemetry: tel}

	if *table1 {
		rows, err := experiments.Table1()
		if err != nil {
			return 1, err
		}
		fmt.Println("Table I: Summary of System Log Datasets (full-scale sizes)")
		experiments.FormatTable1(os.Stdout, rows)
		fmt.Println()
	}
	if *table2 {
		cells, err := experiments.Table2(opts)
		if err != nil {
			return 1, err
		}
		fmt.Println("Table II: Parsing Accuracy (raw/preprocessed)")
		experiments.FormatTable2(os.Stdout, cells)
		fmt.Println()
	}
	if *fig2 {
		sizes := experiments.Fig2Sizes(*maxSize)
		for _, d := range datasets {
			points, err := experiments.Fig2Parsers(d, parserList, sizes, opts)
			if err != nil {
				return 1, err
			}
			experiments.FormatFig2(os.Stdout, d, points)
			if *plot {
				experiments.PlotFig2(os.Stdout, d, points)
			}
			fmt.Println()
		}
	}
	if *fig3 {
		sizes := experiments.Fig2Sizes(*maxSize)
		for _, d := range datasets {
			rows, err := experiments.Fig3Parsers(d, parserList, sizes, opts)
			if err != nil {
				return 1, err
			}
			experiments.FormatFig3(os.Stdout, d, rows, sizes)
			fmt.Println()
		}
	}
	if *tune {
		for _, d := range datasets {
			trials, best, err := experiments.TuneSLCT(d, *sample, *seed)
			if err != nil {
				return 1, err
			}
			fmt.Printf("Tuning SLCT support fraction on %s (%d-line sample):\n", d, *sample)
			for _, t := range trials {
				fmt.Printf("  frac=%-7g F=%.3f\n", t.Param, t.F)
			}
			fmt.Printf("  best: %g\n", best)
			trials, bestK, err := experiments.TuneLogSigK(d, *sample, *seed)
			if err != nil {
				return 1, err
			}
			fmt.Printf("Tuning LogSig k on %s:\n", d)
			for _, t := range trials {
				fmt.Printf("  k=%-4.0f F=%.3f\n", t.Param, t.F)
			}
			fmt.Printf("  best: %.0f\n", bestK)
		}
	}
	if *report != "" {
		out := io.Writer(os.Stderr)
		if *report != "-" {
			f, err := os.Create(*report)
			if err != nil {
				return 1, err
			}
			defer f.Close()
			out = f
		}
		if err := tel.Report("logeval").WriteJSON(out); err != nil {
			return 1, err
		}
	}
	return 0, nil
}
