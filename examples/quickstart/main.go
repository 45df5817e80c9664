// Quickstart: generate a labelled HDFS sample, parse it with each of the
// four algorithms, print the extracted events, and score every parse
// against the ground truth — the core loop of the toolkit.
package main

import (
	"fmt"
	"log"

	"logparse"
)

func main() {
	cat, err := logparse.Dataset("HDFS")
	if err != nil {
		log.Fatal(err)
	}
	msgs := cat.Generate(1, 2000)
	fmt.Printf("Generated %d HDFS log lines, e.g.:\n  %s\n\n", len(msgs), msgs[0].Content)

	for _, algo := range logparse.Algorithms() {
		// LogSig needs k up front; every other parser ignores NumGroups.
		parser, err := logparse.NewParser(algo, logparse.Options{Seed: 1, NumGroups: cat.NumEvents()})
		if err != nil {
			log.Fatal(err)
		}
		result, err := parser.Parse(msgs)
		if err != nil {
			log.Fatal(err)
		}
		acc, err := logparse.EvaluateResult(msgs, result)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-7s extracted %d events, F-measure %.2f\n",
			algo, len(result.Templates), acc.F)
	}

	// Show what one parse actually produces.
	parser, err := logparse.NewParser("IPLoM", logparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	result, err := parser.Parse(msgs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nIPLoM events (top 5 by frequency):")
	counts, _ := result.EventCounts()
	for i := 0; i < len(result.Templates) && i < 5; i++ {
		best, bestN := -1, -1
		for j, n := range counts {
			if n > bestN {
				best, bestN = j, n
			}
		}
		fmt.Printf("  %5d× %s\n", bestN, result.Templates[best])
		counts[best] = -1
	}
}
