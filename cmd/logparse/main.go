// Command logparse parses a log file with one of the six algorithms and
// writes the toolkit's two standard outputs (§II-C, Fig. 1): a log-events
// file listing the extracted templates and a structured-log file mapping
// every input line to an event.
//
//	logparse -in hdfs.log -parser IPLoM -events events.txt -structured structured.txt
//
// When the input carries ground-truth annotations (loggen's format), the
// parse is also scored with the pairwise F-measure.
//
// For production-style runs, -timeout and -fallback wrap the parse in the
// fault-tolerant degradation chain (panics isolated, deadline enforced,
// fallback algorithms tried in order), and -strict rejects corrupt input
// lines instead of skipping them.
//
// -stream runs SLCT's bounded-memory two-pass parse instead, which reads
// only -support, -support-frac, -epsilon and the file flags and writes the
// files batch SLCT writes. A flag that cannot take effect in the chosen
// mode (-epsilon without -stream, -timeout or a -parser other than SLCT
// with it) is a usage error, exit 2, not silently ignored.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"logparse"
	"logparse/internal/cli"
)

func main() {
	code, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "logparse:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// flagNeeds lists the flags that take effect only beside another flag
// ("stream") or only without one ("!stream").
var flagNeeds = map[string]string{
	"epsilon":   "stream",
	"max-lines": "!stream", "preprocess": "!stream", "strict": "!stream", "report": "!stream",
	"timeout": "!stream", "fallback": "!stream", "seed": "!stream", "groups": "!stream",
	"threshold": "!stream", "depth": "!stream", "sim-threshold": "!stream",
	"max-children": "!stream", "tau": "!stream",
}

func run() (int, error) {
	var (
		in         = flag.String("in", "", "input log file (required)")
		parserName = flag.String("parser", "", "algorithm: SLCT, IPLoM, LKE, LogSig, Drain, Spell (default IPLoM; -stream is SLCT)")
		events     = flag.String("events", "", "log events output file (default stdout)")
		structured = flag.String("structured", "", "structured log output file (omit to skip)")
		maxLines   = flag.Int("max-lines", 0, "read at most this many lines (0 = all)")
		preprocess = flag.String("preprocess", "", "apply a dataset's preprocessing rules (e.g. HDFS)")
		seed       = flag.Int64("seed", 1, "seed for randomised algorithms")
		support    = flag.Int("support", 0, "SLCT: absolute support threshold")
		frac       = flag.Float64("support-frac", 0, "SLCT: support as a fraction of input size")
		groups     = flag.Int("groups", 0, "LogSig: number of groups k")
		threshold  = flag.Float64("threshold", 0, "LKE: merge threshold (0 = automatic)")
		depth      = flag.Int("depth", 0, "Drain: prefix-tree depth (0 = default 4)")
		simTh      = flag.Float64("sim-threshold", 0, "Drain: leaf similarity threshold (0 = default 0.4)")
		maxKids    = flag.Int("max-children", 0, "Drain: per-node fan-out cap (0 = default 100)")
		tau        = flag.Float64("tau", 0, "Spell: LCS acceptance threshold (0 = default 0.5)")
		stream     = flag.Bool("stream", false, "SLCT's two-pass streaming parse with bounded memory")
		epsilon    = flag.Float64("epsilon", 0, "streaming: lossy-counting error bound for the vocabulary pass (0 = exact)")
		timeout    = flag.Duration("timeout", 0, "per-tier parse deadline (0 = none); enables the fault-tolerant wrapper")
		fallback   = flag.String("fallback", "", "comma-separated fallback algorithms tried in order when the primary fails (e.g. IPLoM,SLCT)")
		strict     = flag.Bool("strict", false, "fail on corrupt/ambiguous/over-long input lines instead of skipping and counting them")
		report     = flag.String("report", "", "write a JSON run report (stage timings, spans, metrics) to this file (- = stderr)")
	)
	flag.Parse()
	if err := cli.CheckFlagNeeds(flagNeeds); err != nil {
		return 2, err
	}
	if *in == "" {
		return 2, fmt.Errorf("-in is required")
	}
	if *preprocess != "" {
		if _, err := logparse.Dataset(*preprocess); err != nil {
			return 2, fmt.Errorf("-preprocess: %w", err)
		}
	}
	if *stream {
		if *parserName != "" && !strings.EqualFold(*parserName, "SLCT") {
			return 2, fmt.Errorf("-parser %s has no effect with -stream, which runs SLCT", *parserName)
		}
		if err := runStream(*in, *events, *structured, *support, *frac, *epsilon); err != nil {
			return 1, err
		}
		return 0, nil
	}
	if *parserName == "" {
		*parserName = "IPLoM"
	}

	f, err := os.Open(*in)
	if err != nil {
		return 1, err
	}
	defer f.Close()
	msgs, stats, err := logparse.ReadMessagesOpts(f, logparse.ReadOptions{
		MaxLines: *maxLines,
		Strict:   *strict,
	})
	if err != nil {
		return 1, err
	}
	if stats.Corrupt+stats.Ambiguous+stats.Oversized > 0 {
		fmt.Fprintf(os.Stderr, "logparse: tolerated %d corrupt, %d ambiguous, %d over-long lines\n",
			stats.Corrupt, stats.Ambiguous, stats.Oversized)
	}
	if len(msgs) == 0 {
		return 1, fmt.Errorf("no log messages in %s", *in)
	}
	if *preprocess != "" {
		msgs = logparse.Preprocess(*preprocess, msgs)
	}

	var tel *logparse.Telemetry
	if *report != "" {
		tel = logparse.NewTelemetry()
	}
	opts := logparse.Options{
		Seed:         *seed,
		Support:      *support,
		SupportFrac:  *frac,
		NumGroups:    *groups,
		Threshold:    *threshold,
		Depth:        *depth,
		SimThreshold: *simTh,
		MaxChildren:  *maxKids,
		Tau:          *tau,
		Telemetry:    tel,
	}
	parser, err := logparse.NewParser(*parserName, opts)
	if err != nil {
		return 1, err
	}

	servedBy := parser.Name()
	var result *logparse.Result
	if *timeout > 0 || *fallback != "" {
		algorithms := []string{*parserName}
		for _, a := range strings.Split(*fallback, ",") {
			if a = strings.TrimSpace(a); a != "" {
				algorithms = append(algorithms, a)
			}
		}
		chain, err := logparse.NewRobustParser(algorithms, opts,
			logparse.RobustPolicy{Timeout: *timeout, Telemetry: tel})
		if err != nil {
			return 1, err
		}
		var att *logparse.ParseAttribution
		result, att, err = chain.ParseAttributed(context.Background(), msgs)
		if err != nil {
			return 1, err
		}
		servedBy = att.TierName
		if att.Degraded {
			fmt.Fprintf(os.Stderr, "logparse: primary failed, served by fallback tier %d (%s) after %d failed attempts\n",
				att.Tier, att.TierName, len(att.Attempts))
			for _, a := range att.Attempts {
				fmt.Fprintf(os.Stderr, "logparse:   tier %d (%s): %v\n", a.Tier, a.TierName, a.Err)
			}
		}
	} else {
		result, err = parser.Parse(msgs)
		if err != nil {
			return 1, err
		}
	}

	eventsOut := os.Stdout
	if *events != "" {
		ef, err := os.Create(*events)
		if err != nil {
			return 1, err
		}
		defer ef.Close()
		eventsOut = ef
	}
	if err := logparse.WriteEvents(eventsOut, result); err != nil {
		return 1, err
	}
	if *structured != "" {
		sf, err := os.Create(*structured)
		if err != nil {
			return 1, err
		}
		defer sf.Close()
		if err := logparse.WriteStructured(sf, msgs, result); err != nil {
			return 1, err
		}
	}

	counts, outliers := result.EventCounts()
	fmt.Fprintf(os.Stderr, "logparse: %s extracted %d events from %d lines (%d outliers)\n",
		servedBy, len(counts), len(msgs), outliers)
	if msgs[0].TruthID != "" {
		acc, err := logparse.EvaluateResult(msgs, result)
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "logparse: accuracy vs ground truth: %s\n", acc)
	}
	if *report != "" {
		if err := writeReport(tel, "logparse", *report); err != nil {
			return 1, err
		}
	}
	return 0, nil
}

// writeReport emits the telemetry run report as JSON to path ("-" = stderr,
// keeping stdout free for the events output).
func writeReport(tel *logparse.Telemetry, tool, path string) error {
	out := io.Writer(os.Stderr)
	if path != "-" {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}
	return tel.Report(tool).WriteJSON(out)
}

// runStream runs the bounded-memory two-pass SLCT over a file on disk.
func runStream(in, events, structured string, support int, frac, epsilon float64) error {
	open := func() (io.ReadCloser, error) { return os.Open(in) }
	res, err := logparse.ParseStreamSLCT(open, logparse.Options{Support: support, SupportFrac: frac}, epsilon)
	if err != nil {
		return err
	}
	eventsOut := os.Stdout
	if events != "" {
		ef, err := os.Create(events)
		if err != nil {
			return err
		}
		defer ef.Close()
		eventsOut = ef
	}
	if err := logparse.WriteEvents(eventsOut, &logparse.Result{Templates: res.Templates}); err != nil {
		return err
	}
	if structured != "" {
		sf, err := os.Create(structured)
		if err != nil {
			return err
		}
		defer sf.Close()
		for i, a := range res.Assignment {
			id := "-"
			if a >= 0 {
				id = res.Templates[a].ID
			}
			fmt.Fprintf(sf, "%d\t%s\n", i+1, id)
		}
	}
	outliers := 0
	for _, a := range res.Assignment {
		if a < 0 {
			outliers++
		}
	}
	fmt.Fprintf(os.Stderr, "logparse: streaming SLCT extracted %d events from %d lines (%d outliers)\n",
		len(res.Templates), res.Lines, outliers)
	return nil
}
