// Command conformgen maintains the conformance golden corpora under
// internal/conform/testdata/golden: frozen SHA-256 digests of canonicalized
// parses (plus the template lists behind them) for every cell of the
// conformance matrix.
//
// Modes:
//
//	conformgen            regenerate every golden file in place
//	conformgen -check     recompute and compare without writing; exit 1 on drift
//	conformgen -measure   print the measured F-measures per cell (the data
//	                      behind the floors table in internal/conform)
//
// Golden updates must be a deliberate, reviewed diff: a changed digest
// means parser (or generator) behavior changed, which is exactly what the
// golden regression test exists to catch. See DESIGN.md, "Correctness
// harness".
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"logparse/internal/conform"
)

const goldenAlgSeed = 1

func main() {
	out := flag.String("out", "internal/conform/testdata/golden", "golden corpus directory")
	check := flag.Bool("check", false, "compare against the committed goldens without writing")
	measure := flag.Bool("measure", false, "print measured F-measures per conformance cell")
	flag.Parse()

	if *measure {
		if err := runMeasure(); err != nil {
			fmt.Fprintln(os.Stderr, "conformgen:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*out, *check); err != nil {
		fmt.Fprintln(os.Stderr, "conformgen:", err)
		os.Exit(1)
	}
}

func run(dir string, check bool) error {
	if !check {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	drifted := 0
	for _, c := range conform.Cases() {
		fresh, err := conform.ComputeGolden(c, goldenAlgSeed)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, fresh.Filename())
		if check {
			data, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("read %s: %w", path, err)
			}
			frozen, err := conform.DecodeGolden(data)
			if err != nil {
				return err
			}
			if err := frozen.Compare(fresh); err != nil {
				fmt.Fprintln(os.Stderr, err)
				drifted++
				continue
			}
			fmt.Printf("ok  %-22s %d templates\n", fresh.Filename(), len(fresh.Templates))
			continue
		}
		if err := os.WriteFile(path, fresh.Encode(), 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d templates, digest %.12s…)\n", path, len(fresh.Templates), fresh.ResultDigest)
	}
	if drifted > 0 {
		return fmt.Errorf("%d golden file(s) drifted", drifted)
	}
	return nil
}

// runMeasure prints, per cell, the pairwise F-measure of the serial parse
// for two algorithm seeds — the measurements the floors in internal/conform
// are derived from (measured value minus a safety margin).
func runMeasure() error {
	for _, c := range conform.Cases() {
		factory, err := c.Factory()
		if err != nil {
			return err
		}
		msgs := c.Messages()
		fs := make([]float64, 0, 2)
		for _, seed := range []int64{1, 2} {
			res, err := factory(seed).Parse(msgs)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", c.Name(), seed, err)
			}
			f, err := conform.FMeasureAgainstTruth(res, msgs)
			if err != nil {
				return err
			}
			fs = append(fs, f)
		}
		fmt.Printf("%-22s n=%-4d F(seed1)=%.4f F(seed2)=%.4f\n", c.Name(), c.N, fs[0], fs[1])
	}
	return nil
}
