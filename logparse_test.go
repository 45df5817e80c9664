package logparse

import (
	"bytes"
	"strings"
	"testing"
)

func TestAlgorithms(t *testing.T) {
	algos := Algorithms()
	if len(algos) != 6 {
		t.Fatalf("algorithms = %v", algos)
	}
	for _, a := range algos {
		opts := Options{NumGroups: 5} // satisfies LogSig
		p, err := NewParser(a, opts)
		if err != nil {
			t.Fatalf("NewParser(%s): %v", a, err)
		}
		if p.Name() != a {
			t.Errorf("parser %s reports name %s", a, p.Name())
		}
	}
}

func TestNewParserErrors(t *testing.T) {
	if _, err := NewParser("nope", Options{}); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewParser("LogSig", Options{}); err == nil {
		t.Error("LogSig without NumGroups accepted")
	}
	if _, err := NewParser("slct", Options{}); err != nil {
		t.Errorf("case-insensitive lookup broken: %v", err)
	}
}

func TestDatasets(t *testing.T) {
	names := Datasets()
	if len(names) != 8 {
		t.Fatalf("datasets = %v", names)
	}
	want := []string{"BGL", "HPC", "Proxifier", "HDFS", "Zookeeper"}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("paper datasets must lead the list: got %v", names)
		}
	}
	for _, n := range names {
		cat, err := Dataset(n)
		if err != nil {
			t.Fatalf("Dataset(%s): %v", n, err)
		}
		msgs := cat.Generate(1, 50)
		if len(msgs) != 50 {
			t.Errorf("%s generated %d messages", n, len(msgs))
		}
	}
	if _, err := Dataset("bogus"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestEndToEndParseAndScore(t *testing.T) {
	cat, err := Dataset("Zookeeper")
	if err != nil {
		t.Fatal(err)
	}
	msgs := cat.Generate(3, 1000)
	parser, err := NewParser("IPLoM", Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := parser.Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := EvaluateResult(msgs, res)
	if err != nil {
		t.Fatal(err)
	}
	if acc.F < 0.9 {
		t.Errorf("IPLoM on Zookeeper F=%.2f, want ≥0.9", acc.F)
	}
}

func TestPreprocessFacade(t *testing.T) {
	msgs := []Message{{Content: "block blk_12345 stored", Tokens: Tokenize("block blk_12345 stored")}}
	out := Preprocess("HDFS", msgs)
	if out[0].Tokens[1] != Wildcard {
		t.Errorf("block ID not masked: %v", out[0].Tokens)
	}
	// Unknown dataset: identity.
	out = Preprocess("unknown", msgs)
	if out[0].Tokens[1] != "blk_12345" {
		t.Errorf("unknown dataset rewrote tokens: %v", out[0].Tokens)
	}
}

func TestIOFacadeRoundTrip(t *testing.T) {
	cat, err := Dataset("Proxifier")
	if err != nil {
		t.Fatal(err)
	}
	msgs := cat.Generate(2, 100)
	var buf bytes.Buffer
	if err := WriteMessages(&buf, msgs); err != nil {
		t.Fatal(err)
	}
	back, err := ReadMessages(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(msgs) || back[0].Content != msgs[0].Content || back[0].TruthID != msgs[0].TruthID {
		t.Error("round trip lost data")
	}
}

func TestWriteOutputsFacade(t *testing.T) {
	cat, err := Dataset("HDFS")
	if err != nil {
		t.Fatal(err)
	}
	msgs := cat.Generate(1, 300)
	parser, err := NewParser("SLCT", Options{Support: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := parser.Parse(msgs)
	if err != nil {
		t.Fatal(err)
	}
	var events, structured bytes.Buffer
	if err := WriteEvents(&events, res); err != nil {
		t.Fatal(err)
	}
	if err := WriteStructured(&structured, msgs, res); err != nil {
		t.Fatal(err)
	}
	if events.Len() == 0 || structured.Len() == 0 {
		t.Error("empty output files")
	}
	if got := len(strings.Split(strings.TrimSpace(structured.String()), "\n")); got != 300 {
		t.Errorf("structured log has %d lines, want 300", got)
	}
}

func TestAnomalyFacade(t *testing.T) {
	data, err := GenerateHDFSSessions(HDFSSessionOptions{Seed: 5, Sessions: 1500, AnomalyRate: 0.03})
	if err != nil {
		t.Fatal(err)
	}
	res, err := DetectAnomalies(data.Messages, GroundTruthResult(data.Messages), DefaultAnomalyOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := EvaluateAnomalies(res, data.Labels)
	if rep.TotalAnomalies != data.NumAnomalies() {
		t.Errorf("report anomalies %d, labels %d", rep.TotalAnomalies, data.NumAnomalies())
	}
	if rep.DetectedRate() < 0.4 {
		t.Errorf("detected %.0f%%, want ≥40%%", 100*rep.DetectedRate())
	}
}

func TestSummarizeDatasetFacade(t *testing.T) {
	s, err := SummarizeDataset("BGL")
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEvents != 376 {
		t.Errorf("BGL events = %d", s.NumEvents)
	}
}
