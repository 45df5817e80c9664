package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: the bound and
// direction of each gated metric.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var bf benchmarkFile
	b, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	return bf, json.Unmarshal(b, &bf)
}

// pairVerdict is compare's finding for one (metric, workload) pair.
type pairVerdict struct {
	Metric   string     `json:"metric"`
	Workload string     `json:"workload"`
	Bound    float64    `json:"bound"`
	A        [3]float64 `json:"a_q1_median_q3"`
	B        [3]float64 `json:"b_q1_median_q3"`
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative when B is better); Spread is the wider of the two sets'
	// interquartile ranges as a share of its median.
	Worse   float64 `json:"b_worse_share"`
	Spread  float64 `json:"spread_share"`
	Verdict string  `json:"verdict"`
	// BWins and Ties count run pairs (A's i-th against B's i-th run).
	BWins int `json:"b_wins"`
	Ties  int `json:"ties"`
	Pairs int `json:"pairs"`
}

// judge compares two samples of one metric. It is "unresolved" when either
// set's own spread is wider than the bound, else "worse" when B's median is
// worse than A's by more than the bound, else "ok".
func judge(a, b []float64, higherBetter bool, bound float64) pairVerdict {
	v := pairVerdict{Bound: bound}
	v.A[0], v.A[1], v.A[2] = quartiles(a)
	v.B[0], v.B[1], v.B[2] = quartiles(b)
	v.Worse = (v.B[1] - v.A[1]) / v.A[1]
	if higherBetter {
		v.Worse = -v.Worse
	}
	v.Spread = max((v.A[2]-v.A[0])/v.A[1], (v.B[2]-v.B[0])/v.B[1])
	switch {
	case v.Spread > bound:
		v.Verdict = "unresolved"
	case v.Worse > bound:
		v.Verdict = "worse"
	default:
		v.Verdict = "ok"
	}
	v.Pairs = min(len(a), len(b))
	for i := 0; i < v.Pairs; i++ {
		switch {
		case a[i] == b[i]:
			v.Ties++
		case (b[i] > a[i]) == higherBetter:
			v.BWins++
		}
	}
	return v
}

// comparison is what compare -o writes: both result sets and the verdicts.
type comparison struct {
	A        []savedRun    `json:"a"`
	B        []savedRun    `json:"b"`
	Verdicts []pairVerdict `json:"verdicts"`
}

func readRuns(path string) ([]savedRun, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []savedRun
	if err := json.Unmarshal(b, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return runs, nil
}

// samples collects one metric's values on one workload, in run order.
func samples(runs []savedRun, workload, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	out := fs.String("o", "", "also write both sets and the verdicts to this JSON file")
	spec := fs.String("benchmark", "BENCHMARK.json", "the benchmark definition holding the bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-o FILE] [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	bf, err := readBenchmarkFile(*spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	a, err := readRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}
	b, err := readRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		return 1
	}

	cmp := comparison{A: a, B: b}
	fmt.Printf("%-24s %-20s %12s %12s %8s %8s %6s  %s\n", "metric", "workload", "A median", "B median", "B worse", "spread", "bound", "verdict")
	bad, wins, decided := 0, 0, 0
	for _, m := range bf.EndToEnd {
		for _, w := range bf.Workloads {
			xa, xb := samples(a, w.Name, m.Name), samples(b, w.Name, m.Name)
			if len(xa) < 2 || len(xb) < 2 {
				fmt.Printf("%-24s %-20s needs at least two runs in each set (A has %d, B has %d)\n", m.Name, w.Name, len(xa), len(xb))
				bad++
				continue
			}
			v := judge(xa, xb, m.Better == "higher", m.Bound)
			v.Metric, v.Workload = m.Name, w.Name
			cmp.Verdicts = append(cmp.Verdicts, v)
			fmt.Printf("%-24s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				m.Name, w.Name, v.A[1], v.B[1], 100*v.Worse, 100*v.Spread, 100*m.Bound, v.Verdict)
			if v.Verdict != "ok" {
				bad++
			}
			wins += v.BWins
			decided += v.Pairs - v.Ties
		}
	}
	sort.SliceStable(cmp.Verdicts, func(i, j int) bool { return cmp.Verdicts[i].Workload < cmp.Verdicts[j].Workload })
	if decided > 0 {
		fmt.Printf("B wins %d of %d decided run pairs (%.0f%%) over all gated (metric, workload) pairs; a gain needs 90%% on its own pair\n",
			wins, decided, 100*float64(wins)/float64(decided))
	}
	if *out != "" {
		buf, err := json.MarshalIndent(cmp, "", " ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "compare:", err)
			return 1
		}
	}
	if bad > 0 {
		fmt.Printf("%d pairs are not ok\n", bad)
		return 1
	}
	return 0
}
