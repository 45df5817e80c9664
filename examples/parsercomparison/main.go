// Parser comparison: a miniature of the paper's RQ1/RQ2 — accuracy with
// and without domain-knowledge preprocessing (Finding 2), and running time
// as the input grows (Finding 3), on the BGL supercomputer dataset.
package main

import (
	"fmt"
	"log"
	"time"

	"logparse"
)

func main() {
	cat, err := logparse.Dataset("BGL")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Accuracy on 2k BGL lines (raw → preprocessed):")
	msgs := cat.Generate(42, 2000)
	pre := logparse.Preprocess("BGL", msgs)
	for _, algo := range logparse.Algorithms() {
		parser := mustParser(algo, cat.NumEvents())
		rawF := parseF(parser, msgs)
		ppF := parseF(parser, pre)
		fmt.Printf("  %-7s %.2f → %.2f\n", algo, rawF, ppF)
	}

	fmt.Println("\nRunning time vs input size (Finding 3 — note LKE's quadratic growth):")
	for _, n := range []int{400, 1000, 2000, 4000} {
		sample := cat.Generate(42, n)
		fmt.Printf("  %6d lines:", n)
		for _, algo := range []string{"SLCT", "IPLoM", "LKE"} {
			parser := mustParser(algo, cat.NumEvents())
			start := time.Now()
			if _, err := parser.Parse(sample); err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  %s=%v", algo, time.Since(start).Round(time.Millisecond))
		}
		fmt.Println()
	}
}

func mustParser(algo string, events int) logparse.Parser {
	// LogSig needs k up front; every other parser ignores NumGroups.
	p, err := logparse.NewParser(algo, logparse.Options{Seed: 1, NumGroups: events})
	if err != nil {
		log.Fatal(err)
	}
	return p
}

func parseF(parser logparse.Parser, msgs []logparse.Message) float64 {
	result, err := parser.Parse(msgs)
	if err != nil {
		log.Fatal(err)
	}
	acc, err := logparse.EvaluateResult(msgs, result)
	if err != nil {
		log.Fatal(err)
	}
	return acc.F
}
