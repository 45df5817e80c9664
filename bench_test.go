// Benchmarks: one per table and figure of the paper's evaluation section,
// plus ablations for the design choices called out in DESIGN.md.
//
// The benches regenerate each experiment's *shape* at bench-friendly sizes
// (a benchmark iteration must stay in the seconds range on one core); the
// paper-scale numbers come from cmd/logeval and cmd/loganomaly. Quality
// metrics that a table reports alongside time (F-measure, false alarms)
// are emitted via b.ReportMetric, so `go test -bench` output reads like the
// corresponding table.
package logparse_test

import (
	"bytes"
	"fmt"
	"io"
	"testing"
	"time"

	"logparse"
	"logparse/internal/conform"
	"logparse/internal/core"
	"logparse/internal/eval"
	"logparse/internal/experiments"
	"logparse/internal/gen"
	"logparse/internal/match"
	"logparse/internal/mining/anomaly"
	"logparse/internal/parsers/iplom"
	"logparse/internal/parsers/logsig"
	"logparse/internal/parsers/slct"
	"logparse/internal/tokenize"
)

// benchFactory builds the tuned parser for a (parser, dataset) pair.
func benchFactory(b *testing.B, parser, dataset string) eval.ParserFactory {
	b.Helper()
	f, err := experiments.Factory(parser, dataset)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// scoreParse parses msgs and returns the pairwise F-measure.
func scoreParse(b *testing.B, p core.Parser, msgs []core.LogMessage) float64 {
	b.Helper()
	res, err := p.Parse(msgs)
	if err != nil {
		b.Fatal(err)
	}
	truth := make([]string, len(msgs))
	for i := range msgs {
		truth[i] = msgs[i].TruthID
	}
	m, err := eval.FMeasure(res.ClusterIDs(), truth)
	if err != nil {
		b.Fatal(err)
	}
	return m.F
}

// BenchmarkTable1DatasetSummary regenerates Table I (dataset inventory).
func BenchmarkTable1DatasetSummary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("rows = %d", len(rows))
		}
	}
}

// BenchmarkTable2ParsingAccuracy regenerates Table II: each sub-benchmark
// is one (parser, dataset) cell on the 2k sample; fmeasure is the cell
// value (raw variant).
func BenchmarkTable2ParsingAccuracy(b *testing.B) {
	const sample = 2000
	for _, parser := range experiments.ParserNames {
		for _, dataset := range gen.Names {
			if parser == "LKE" && sample > 1000 {
				// Keep LKE's quadratic pass at bench-friendly size.
				continue
			}
			b.Run(parser+"/"+dataset, func(b *testing.B) {
				cat, err := gen.ByName(dataset)
				if err != nil {
					b.Fatal(err)
				}
				msgs := cat.Generate(42, sample)
				factory := benchFactory(b, parser, dataset)
				var f float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					f = scoreParse(b, factory(1), msgs)
				}
				b.ReportMetric(f, "fmeasure")
			})
		}
	}
	for _, dataset := range gen.Names {
		b.Run("LKE/"+dataset, func(b *testing.B) {
			cat, err := gen.ByName(dataset)
			if err != nil {
				b.Fatal(err)
			}
			msgs := cat.Generate(42, 1000)
			factory := benchFactory(b, "LKE", dataset)
			var f float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f = scoreParse(b, factory(1), msgs)
			}
			b.ReportMetric(f, "fmeasure")
		})
	}
}

// BenchmarkFig2Efficiency regenerates Fig. 2: running time of each parser
// as the input grows. ns/op across the size ladder IS the figure's series.
func BenchmarkFig2Efficiency(b *testing.B) {
	sizes := []int{400, 2000, 10000}
	for _, dataset := range gen.Names {
		for _, parser := range experiments.ParserNames {
			for _, n := range sizes {
				if parser == "LKE" && n > 2000 {
					continue // Fig. 2 leaves LKE's large points unplotted
				}
				if parser == "LogSig" && n > 2000 {
					continue // keep the slowest cell in bench range
				}
				name := fmt.Sprintf("%s/%s/%d", dataset, parser, n)
				b.Run(name, func(b *testing.B) {
					cat, err := gen.ByName(dataset)
					if err != nil {
						b.Fatal(err)
					}
					msgs := cat.Generate(42, n)
					factory := benchFactory(b, parser, dataset)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := factory(1).Parse(msgs); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}

// BenchmarkFig3AccuracyVsSize regenerates Fig. 3: accuracy with parameters
// frozen from the 2k tuning sample, as volume grows.
func BenchmarkFig3AccuracyVsSize(b *testing.B) {
	sizes := []int{400, 2000, 10000}
	for _, dataset := range []string{"BGL", "HDFS"} { // representative panels
		for _, parser := range []string{"SLCT", "IPLoM", "LogSig"} {
			for _, n := range sizes {
				if parser == "LogSig" && n > 2000 {
					continue
				}
				name := fmt.Sprintf("%s/%s/%d", dataset, parser, n)
				b.Run(name, func(b *testing.B) {
					cat, err := gen.ByName(dataset)
					if err != nil {
						b.Fatal(err)
					}
					msgs := cat.Generate(42, n)
					factory := benchFactory(b, parser, dataset)
					var f float64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						f = scoreParse(b, factory(1), msgs)
					}
					b.ReportMetric(f, "fmeasure")
				})
			}
		}
	}
}

// BenchmarkTable3AnomalyDetection regenerates Table III: the RQ3 anomaly
// detection pipeline per parser. detected/falsealarms per run are the
// table's columns (at bench scale).
func BenchmarkTable3AnomalyDetection(b *testing.B) {
	data, err := gen.GenerateHDFSSessions(gen.HDFSOptions{Seed: 11, Sessions: 2000, AnomalyRate: 0.0293})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, parsed *core.ParseResult) anomaly.Report {
		res, err := anomaly.Detect(data.Messages, parsed, anomaly.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		return anomaly.Evaluate(res, data.Labels)
	}
	parsers := map[string]core.Parser{
		"SLCT":   slct.New(slct.Options{SupportFrac: 0.0028}),
		"LogSig": logsig.New(logsig.Options{NumGroups: 40, Seed: 1}),
		"IPLoM":  iplom.New(iplom.Options{}),
	}
	for name, p := range parsers {
		b.Run(name, func(b *testing.B) {
			var rep anomaly.Report
			for i := 0; i < b.N; i++ {
				parsed, err := p.Parse(data.Messages)
				if err != nil {
					b.Fatal(err)
				}
				rep = run(b, parsed)
			}
			b.ReportMetric(float64(rep.Detected), "detected")
			b.ReportMetric(float64(rep.FalseAlarms), "falsealarms")
		})
	}
	b.Run("GroundTruth", func(b *testing.B) {
		var rep anomaly.Report
		for i := 0; i < b.N; i++ {
			rep = run(b, gen.TruthResult(data.Messages))
		}
		b.ReportMetric(float64(rep.Detected), "detected")
		b.ReportMetric(float64(rep.FalseAlarms), "falsealarms")
	})
}

// BenchmarkAblationPreprocessing isolates Finding 2: the same parser with
// and without domain-knowledge preprocessing.
func BenchmarkAblationPreprocessing(b *testing.B) {
	cat := gen.BGL()
	msgs := cat.Generate(42, 2000)
	pre := tokenize.ForDataset("BGL").Apply(msgs)
	factory := benchFactory(b, "LogSig", "BGL")
	for _, variant := range []struct {
		name string
		in   []core.LogMessage
	}{{"raw", msgs}, {"preprocessed", pre}} {
		b.Run(variant.name, func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				f = scoreParse(b, factory(1), variant.in)
			}
			b.ReportMetric(f, "fmeasure")
		})
	}
}

// BenchmarkAblationSLCTSupport sweeps SLCT's only knob.
func BenchmarkAblationSLCTSupport(b *testing.B) {
	msgs := gen.HDFS().Generate(42, 5000)
	for _, support := range []int{5, 20, 100, 500} {
		b.Run(fmt.Sprintf("support=%d", support), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				f = scoreParse(b, slct.New(slct.Options{Support: support}), msgs)
			}
			b.ReportMetric(f, "fmeasure")
		})
	}
}

// BenchmarkAblationIPLoM sweeps the cluster-goodness threshold, the knob
// that decides how early partitions stop splitting.
func BenchmarkAblationIPLoM(b *testing.B) {
	msgs := gen.BGL().Generate(42, 5000)
	for _, cgt := range []float64{0.3, 0.575, 0.9} {
		b.Run(fmt.Sprintf("goodness=%v", cgt), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				f = scoreParse(b, iplom.New(iplom.Options{ClusterGoodness: cgt}), msgs)
			}
			b.ReportMetric(f, "fmeasure")
		})
	}
}

// BenchmarkAblationLogSigK sweeps k, the Finding 4 tuning target.
func BenchmarkAblationLogSigK(b *testing.B) {
	msgs := gen.Zookeeper().Generate(42, 2000)
	for _, k := range []int{20, 60, 120} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var f float64
			for i := 0; i < b.N; i++ {
				f = scoreParse(b, logsig.New(logsig.Options{NumGroups: k, Seed: 1}), msgs)
			}
			b.ReportMetric(f, "fmeasure")
		})
	}
}

// BenchmarkAblationPCA sweeps the detector's α and variance fraction.
func BenchmarkAblationPCA(b *testing.B) {
	data, err := gen.GenerateHDFSSessions(gen.HDFSOptions{Seed: 11, Sessions: 2000, AnomalyRate: 0.0293})
	if err != nil {
		b.Fatal(err)
	}
	gt := gen.TruthResult(data.Messages)
	cm, err := anomaly.BuildMatrix(data.Messages, gt)
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []anomaly.Options{
		{Alpha: 0.001, VarianceFraction: 0.95},
		{Alpha: 0.01, VarianceFraction: 0.95},
		{Alpha: 0.001, VarianceFraction: 0.90},
	} {
		name := fmt.Sprintf("alpha=%v/var=%v", cfg.Alpha, cfg.VarianceFraction)
		b.Run(name, func(b *testing.B) {
			var rep anomaly.Report
			for i := 0; i < b.N; i++ {
				res, err := anomaly.DetectMatrix(cm, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep = anomaly.Evaluate(res, data.Labels)
			}
			b.ReportMetric(float64(rep.Detected), "detected")
			b.ReportMetric(float64(rep.FalseAlarms), "falsealarms")
		})
	}
}

// BenchmarkStreamingSLCT compares the in-memory parser against the
// two-pass streaming implementation (exact and lossy-counted vocabulary) —
// the bounded-memory path for paper-scale logs.
func BenchmarkStreamingSLCT(b *testing.B) {
	msgs := gen.HDFS().Generate(42, 20000)
	var buf bytes.Buffer
	if err := core.WriteMessages(&buf, msgs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	open := func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(data)), nil }
	b.Run("in-memory", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := slct.New(slct.Options{Support: 100}).Parse(msgs); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := logparse.ParseStreamSLCT(open, logparse.Options{Support: 100}, 0)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stream-lossy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, err := logparse.ParseStreamSLCT(open, logparse.Options{Support: 100}, 0.0005)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkMatcherThroughput measures the online matcher's lines/second —
// the ingest-path cost of applying mined templates.
func BenchmarkMatcherThroughput(b *testing.B) {
	msgs := gen.HDFS().Generate(42, 5000)
	parsed, err := iplom.New(iplom.Options{}).Parse(msgs)
	if err != nil {
		b.Fatal(err)
	}
	m, err := match.FromResult(parsed)
	if err != nil {
		b.Fatal(err)
	}
	fresh := gen.HDFS().Generate(43, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range fresh {
			_, _ = m.Match(fresh[j].Tokens)
		}
	}
	b.ReportMetric(float64(len(fresh)), "lines/op")
}

// BenchmarkConformSuite measures what the conformance harness adds on top
// of a plain parse: canonicalization, the clustering signature, and the
// SHA-256 digest that golden files freeze. The "overhead-%" metric is the
// harness cost as a percentage of the bare parse — it is the price every
// differential/golden check pays per cell, and it must stay a small
// fraction of the parse itself.
func BenchmarkConformSuite(b *testing.B) {
	for _, tc := range []struct{ parser, dataset string }{
		{"SLCT", "HDFS"},
		{"IPLoM", "BGL"},
	} {
		factory := benchFactory(b, tc.parser, tc.dataset)
		cat, err := gen.ByName(tc.dataset)
		if err != nil {
			b.Fatal(err)
		}
		msgs := cat.Generate(42, 2000)
		b.Run(tc.parser+"/"+tc.dataset+"/parse-only", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := factory(1).Parse(msgs); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.parser+"/"+tc.dataset+"/parse+digest", func(b *testing.B) {
			parseNS := benchNSPerOp(b, func() {
				if _, err := factory(1).Parse(msgs); err != nil {
					b.Fatal(err)
				}
			})
			res, err := factory(1).Parse(msgs)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				canon := conform.MergeEqualTemplates(res).Canonical()
				if d := conform.Digest(canon); d == "" {
					b.Fatal("empty digest")
				}
			}
			b.StopTimer()
			harnessNS := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if parseNS > 0 {
				b.ReportMetric(100*harnessNS/parseNS, "overhead-%")
			}
		})
	}
}

// benchNSPerOp times fn outside the benchmark's own loop, for overhead
// ratios.
func benchNSPerOp(b *testing.B, fn func()) float64 {
	b.Helper()
	const reps = 3
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / reps
}
