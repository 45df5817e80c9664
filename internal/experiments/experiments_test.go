package experiments

import (
	"bytes"
	"strings"
	"testing"

	"logparse/internal/gen"
)

func TestTable1MatchesPaper(t *testing.T) {
	rows, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(rows))
	}
	want := map[string]struct{ logs, events int }{
		"BGL":       {4747963, 376},
		"HPC":       {433490, 105},
		"Proxifier": {10108, 8},
		"HDFS":      {11175629, 29},
		"Zookeeper": {74380, 80},
	}
	for _, r := range rows {
		w, ok := want[r.System]
		if !ok {
			t.Errorf("unexpected system %q", r.System)
			continue
		}
		if r.NumLogs != w.logs || r.NumEvents != w.events {
			t.Errorf("%s: logs=%d events=%d, want logs=%d events=%d",
				r.System, r.NumLogs, r.NumEvents, w.logs, w.events)
		}
	}
	var buf bytes.Buffer
	FormatTable1(&buf, rows)
	if !strings.Contains(buf.String(), "11175629") {
		t.Errorf("formatted table missing HDFS size:\n%s", buf.String())
	}
}

func TestFactoryKnownParsers(t *testing.T) {
	for _, parser := range ParserNames {
		for _, dataset := range gen.Names {
			f, err := Factory(parser, dataset)
			if err != nil {
				t.Fatalf("Factory(%s, %s): %v", parser, dataset, err)
			}
			if got := f(1).Name(); got != parser {
				t.Errorf("factory for %s built %s", parser, got)
			}
		}
	}
	if _, err := Factory("nope", "BGL"); err == nil {
		t.Error("unknown parser accepted")
	}
	if _, err := Factory("SLCT", "nope"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

// TestRunsFor: a sweep repeats a randomised parser Options.Runs times and
// runs a deterministic one once.
func TestRunsFor(t *testing.T) {
	rows, err := Fig3Parsers("Proxifier", ParserNames, []int{400}, Options{Runs: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{"SLCT": 1, "IPLoM": 1, "LKE": 2, "LogSig": 2}
	if len(rows) != len(want) {
		t.Fatalf("rows = %+v", rows)
	}
	for _, r := range rows {
		if r.Runs != want[r.Parser] {
			t.Errorf("%s ran %d times, want %d", r.Parser, r.Runs, want[r.Parser])
		}
	}
}

func TestFig2Sizes(t *testing.T) {
	sizes := Fig2Sizes(40000)
	if len(sizes) != 4 || sizes[len(sizes)-1] != 40000 {
		t.Errorf("sizes = %v", sizes)
	}
	all := Fig2Sizes(0)
	if len(all) != 6 {
		t.Errorf("uncapped sizes = %v", all)
	}
}

// TestFinding1And2SmallScale checks the headline accuracy findings on a
// reduced sample so the test stays fast: overall accuracy is high
// (Finding 1) and preprocessing improves the clustering-based parsers on
// the datasets where the paper highlights it (Finding 2).
func TestFinding1And2SmallScale(t *testing.T) {
	opts := Options{Sample: 800, Runs: 1, Seed: 42}
	cells, err := Table2(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 20 {
		t.Fatalf("cells = %d, want 4 parsers × 5 datasets", len(cells))
	}
	high := 0
	for _, c := range cells {
		best := c.Raw
		if c.HasPreprocessed && c.Preprocessed > best {
			best = c.Preprocessed
		}
		if best >= 0.8 {
			high++
		}
	}
	if high < 14 {
		t.Errorf("Finding 1 violated: only %d/20 cells ≥0.8", high)
	}
	// Finding 2's bold cell: LogSig on BGL jumps with preprocessing.
	for _, c := range cells {
		if c.Parser == "LogSig" && c.Dataset == "BGL" {
			if c.Preprocessed < c.Raw+0.2 {
				t.Errorf("LogSig/BGL: raw=%.2f preprocessed=%.2f, want a large jump", c.Raw, c.Preprocessed)
			}
		}
	}
	var buf bytes.Buffer
	FormatTable2(&buf, cells)
	if !strings.Contains(buf.String(), "/-") {
		t.Error("Proxifier column must print '-' for preprocessed")
	}
}

// TestFinding3Efficiency checks that the heuristic parsers scale linearly
// while LKE grows super-linearly (quadratically) on the same sweep.
func TestFinding3Efficiency(t *testing.T) {
	points, err := Fig2("Proxifier", []int{400, 1600}, Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := map[string]map[int]float64{}
	for _, p := range points {
		if p.Skipped {
			continue
		}
		if elapsed[p.Parser] == nil {
			elapsed[p.Parser] = map[int]float64{}
		}
		elapsed[p.Parser][p.Lines] = p.Elapsed.Seconds()
	}
	// 4× input: LKE should grow ≥ 6× (quadratic ⇒ 16×, allow noise);
	// SLCT/IPLoM well under that.
	lkeGrowth := elapsed["LKE"][1600] / elapsed["LKE"][400]
	if lkeGrowth < 6 {
		t.Errorf("LKE growth %.1f×, expected near-quadratic (≥6×)", lkeGrowth)
	}
	iplomGrowth := elapsed["IPLoM"][1600] / elapsed["IPLoM"][400]
	if iplomGrowth > lkeGrowth {
		t.Errorf("IPLoM grew faster than LKE: %.1f× vs %.1f×", iplomGrowth, lkeGrowth)
	}
	var buf bytes.Buffer
	FormatFig2(&buf, "Proxifier", points)
	if !strings.Contains(buf.String(), "400") {
		t.Errorf("formatted panel missing size axis:\n%s", buf.String())
	}
}

func TestFig3FrozenParams(t *testing.T) {
	rows, err := Fig3("Zookeeper", []int{400, 1600}, Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 4 parsers × 2 sizes (LKE under its cap at these sizes).
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	for _, r := range rows {
		if r.F <= 0 || r.F > 1 {
			t.Errorf("%s@%d: F=%v", r.Parser, r.Sample, r.F)
		}
	}
	var buf bytes.Buffer
	FormatFig3(&buf, "Zookeeper", rows, []int{400, 1600})
	if !strings.Contains(buf.String(), "1600") {
		t.Errorf("formatted panel missing sizes:\n%s", buf.String())
	}
}

func TestTuneSLCTProxifier(t *testing.T) {
	trials, best, err := TuneSLCT("Proxifier", 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 {
		t.Fatal("no trials")
	}
	// Finding 4 context: the best Proxifier support is the large one (the
	// program/host vocabulary must fall below support).
	if best < 0.1 {
		t.Errorf("tuned Proxifier support frac = %v, expected ≥0.1", best)
	}
}

// TestFindings5And6Table3 runs the RQ3 pipeline at reduced scale and checks
// the paper's punchline: all parsers detect a comparable share of
// anomalies, but SLCT produces far more false alarms than IPLoM despite a
// high parsing accuracy, and the ground-truth row is nearly clean.
func TestFindings5And6Table3(t *testing.T) {
	if testing.Short() {
		t.Skip("Table III takes ~10 s; skipped with -short")
	}
	reports, err := Table3(Table3Options{Sessions: 3000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 4 {
		t.Fatalf("reports = %d, want 4", len(reports))
	}
	byParser := map[string]int{}
	for i, r := range reports {
		byParser[r.Parser] = i
	}
	gt := reports[byParser["Ground truth"]]
	slct := reports[byParser["SLCT"]]
	iplom := reports[byParser["IPLoM"]]
	if gt.ParsingAccuracy < 0.999 {
		t.Errorf("ground truth parsing accuracy = %v", gt.ParsingAccuracy)
	}
	if gt.FalseAlarmRate() > 0.05 {
		t.Errorf("ground truth FA rate %.2f, want ≈0", gt.FalseAlarmRate())
	}
	if slct.ParsingAccuracy < 0.7 {
		t.Errorf("SLCT Table III parsing accuracy = %.2f, want ≥0.7 (tuned)", slct.ParsingAccuracy)
	}
	// Finding 6: SLCT false alarms an order of magnitude above IPLoM's.
	if slct.FalseAlarms < 5*(iplom.FalseAlarms+1) {
		t.Errorf("SLCT FAs (%d) not ≫ IPLoM FAs (%d)", slct.FalseAlarms, iplom.FalseAlarms)
	}
	// Finding 5: detection works for every parser at these accuracies.
	for _, r := range reports {
		if r.DetectedRate() < 0.3 {
			t.Errorf("%s detected only %.0f%%", r.Parser, 100*r.DetectedRate())
		}
	}
	var buf bytes.Buffer
	FormatTable3(&buf, reports)
	if !strings.Contains(buf.String(), "Ground truth") {
		t.Errorf("formatted Table III missing ground truth row:\n%s", buf.String())
	}
}

func TestFig2ParsersSubset(t *testing.T) {
	points, err := Fig2Parsers("Proxifier", []string{"IPLoM"}, []int{400}, Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 || points[0].Parser != "IPLoM" {
		t.Errorf("points = %+v", points)
	}
}

func TestFig3ParsersSubset(t *testing.T) {
	rows, err := Fig3Parsers("Proxifier", []string{"SLCT"}, []int{400}, Options{Runs: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].Parser != "SLCT" {
		t.Errorf("rows = %+v", rows)
	}
}

func TestTuneLogSigKRange(t *testing.T) {
	trials, best, err := TuneLogSigK("Proxifier", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) == 0 || best <= 0 {
		t.Errorf("trials=%d best=%v", len(trials), best)
	}
	// Proxifier has 8 events; enormous k must not win the grid search.
	if best > 60 {
		t.Errorf("tuned k=%v implausible for an 8-event dataset", best)
	}
}
