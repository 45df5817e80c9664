// Command bench is the repository's benchmark: it drives a real
// logstreamd -listen -wal -events process over HTTP with a fixed amount of
// generated work per workload, checks the outputs against live oracles, and
// prints the end-to-end metrics; with -trace 1 it also climbs an in-process
// ladder of the packages' public entry points and prints the per-layer
// metrics. See README.md in this directory.
//
//	go run ./bench -workload wire-hdfs -seed 1 -seconds 15 -trace 0
//	go run ./bench                       # all four workloads
//	go run ./bench compare A.json B.json # two result sets against the bounds
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// result is the one JSON object a run prints as its last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// savedRun is one entry of a result-set file written by -append and read by
// compare.
type savedRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
}

// hardDeadline bounds one workload, set-up and ladder included: about four
// times what it takes on the reference sandbox and inside the 180 s a run
// may last. When it passes, the server is killed and the run has failed.
const hardDeadline = 150 * time.Second

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(benchMain(os.Args[1:]))
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload to run (default: all four, one after another)")
		seed    = fs.Int64("seed", 1, "seed the inputs are generated from")
		seconds = fs.Int("seconds", 15, "run length: each workload's fixed amount of work is sized to take about this long on the reference sandbox")
		trace   = fs.Int("trace", 0, "1: also climb the in-process ladder, write the spans to bench/out, and report the per-layer metrics instead of the end-to-end ones")
		quick   = fs.Bool("quick", false, "every size divided by 50: same code paths and oracles, meaningless numbers")
		appendF = fs.String("append", "", "append each run's result to this JSON result-set file (for compare)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds < 1 || *seconds > 60 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(os.Stderr, "bench: usage: bench [-workload W] [-seed N] [-seconds 1..60] [-trace 0|1] [-quick] [-append FILE]")
		return 2
	}
	run := workloads
	if *name != "" {
		w, err := workloadByName(*name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		run = []workload{w}
	}

	// Every exit path kills the children and removes the data roots.
	defer cleanupAll()
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigCh
		cleanupAll()
		os.Exit(130)
	}()

	ctx := context.Background()
	bin, err := buildServer(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	opt := options{seed: *seed, seconds: *seconds, quick: *quick, bin: bin, base: dataBase()}
	fmt.Printf("data roots under %s; GOMAXPROCS of the load generator %d\n", opt.base, runtime.GOMAXPROCS(0))

	code := 0
	for _, w := range run {
		watchdog := time.AfterFunc(hardDeadline, func() {
			fmt.Fprintf(os.Stderr, "bench: %s passed its hard deadline of %s; killing the server\n", w.Name, hardDeadline)
			cleanupAll()
			os.Exit(1)
		})
		res, err := runOne(ctx, w, opt, *trace == 1)
		watchdog.Stop()
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s failed: %v\n", w.Name, err)
			return 1
		}
		if *appendF != "" {
			saved := savedRun{Workload: w.Name, Seed: *seed, Seconds: *seconds, Trace: *trace, result: *res}
			if err := appendRun(*appendF, saved); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			code = 1
		}
	}
	return code
}

// runOne runs one workload and shapes its result for printing: the
// end-to-end metrics of the ordinary run, or with trace the per-layer
// metrics of the same run plus the ladder's.
func runOne(ctx context.Context, w workload, opt options, trace bool) (*result, error) {
	rr, err := runWorkload(ctx, w, opt)
	if err != nil {
		return nil, err
	}
	for _, msg := range rr.oracle {
		fmt.Fprintf(os.Stderr, "bench: %s: oracle failed: %s\n", w.Name, msg)
	}
	res := &result{Correct: len(rr.oracle) == 0, Attempted: rr.attempted, Failed: rr.failed, Metrics: make(map[string]metricValue)}
	defs, values := endToEndMetrics, rr.endToEnd
	if trace {
		tr := newTracer()
		layers, err := runLadder(w, w.scaled(opt.seconds, opt.quick), opt, tr)
		if err != nil {
			return nil, fmt.Errorf("ladder: %w", err)
		}
		path, err := tr.writeSpans(filepath.Join("bench", "out"), w.Name)
		if err != nil {
			return nil, err
		}
		fmt.Printf("%d spans written to %s; time by span name, ms (self = not covered by child spans):\n", len(tr.spans), path)
		total, self := layerTotals(tr.spans)
		names := make([]string, 0, len(total))
		for name := range total {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Printf("  %-26s total %10.1f  self %10.1f\n", name, float64(total[name])/1e6, float64(self[name])/1e6)
		}
		for k, v := range layers {
			rr.perLayer[k] = v
		}
		defs, values = perLayerMetrics, rr.perLayer
	}
	mode := ""
	if opt.quick {
		mode = ", quick"
	}
	fmt.Printf("%s (seed %d, %d s%s)\n", w.Name, opt.seed, opt.seconds, mode)
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Printf("  %-38s %14.4f %s\n", d.Name, v, d.Unit)
	}
	fmt.Printf("  %-38s %9d of %d\n", "failed requests", res.Failed, res.Attempted)
	return res, nil
}

// appendRun adds one run to the JSON array in path, creating the file.
func appendRun(path string, run savedRun) error {
	var runs []savedRun
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &runs); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	b, err := json.MarshalIndent(append(runs, run), "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
