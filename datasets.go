package logparse

import (
	"io"
	"math/rand"
	"time"

	"logparse/internal/core"
	"logparse/internal/gen"
	"logparse/internal/tokenize"
)

// Catalog is a synthetic dataset: a catalogue of ground-truth templates
// with realistic popularity skew. Generate draws labelled log messages.
type Catalog = gen.Catalog

// HDFSSessions is a session-structured HDFS log with labelled anomalies.
type HDFSSessions = gen.HDFSData

// HDFSSessionOptions configures session-structured HDFS generation.
type HDFSSessionOptions = gen.HDFSOptions

// DatasetSummary is one row of the paper's Table I.
type DatasetSummary = gen.Summary

// Datasets lists the built-in dataset names: the paper's five (BGL, HPC,
// Proxifier, HDFS, Zookeeper) followed by the extended set (Hadoop,
// Spark, Thunderbird).
func Datasets() []string { return gen.AllNames() }

// Dataset returns a built-in dataset catalogue by name.
func Dataset(name string) (*Catalog, error) { return gen.ByName(name) }

// SummarizeDataset returns the Table I row of a dataset.
func SummarizeDataset(name string) (DatasetSummary, error) { return gen.Summarize(name) }

// GenerateHDFSSessions builds the session-structured HDFS log used in the
// anomaly-detection study, with exact anomaly labels.
func GenerateHDFSSessions(opts HDFSSessionOptions) (*HDFSSessions, error) {
	return gen.GenerateHDFSSessions(opts)
}

// GroundTruthResult builds the exactly-correct parse of labelled messages
// (one template per ground-truth event), the "Ground truth" row of
// Table III.
func GroundTruthResult(msgs []Message) *Result { return gen.TruthResult(msgs) }

// Preprocess applies a dataset's domain-knowledge preprocessing rules
// (§IV-B: IP/block-ID/core-ID masking) to messages, returning a rewritten
// copy. Unknown dataset names apply no rules.
func Preprocess(dataset string, msgs []Message) []Message {
	var rules []tokenize.Rule
	if cat, err := gen.ByName(dataset); err == nil {
		rules = cat.Rules
	}
	return tokenize.NewPreprocessor(rules...).Apply(msgs)
}

// RenderRawLines renders messages as full raw log lines with realistic
// per-dataset headers (timestamp, node, severity, component) — the form
// production systems actually write. Timestamps advance monotonically from
// start with small jitter. Use StripHeader to recover message content.
func RenderRawLines(dataset string, msgs []Message, seed int64, start time.Time) ([]string, error) {
	cat, err := gen.ByName(dataset)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	lines := make([]string, len(msgs))
	ts := start
	for i, m := range msgs {
		ts = ts.Add(time.Duration(rng.Intn(2000)) * time.Millisecond)
		lines[i] = cat.Header.Render(m.Content, ts, rng)
	}
	return lines, nil
}

// StripHeader removes a dataset's header fields from one raw line,
// returning the free-text message content the parsers consume.
func StripHeader(dataset, line string) (string, error) {
	cat, err := gen.ByName(dataset)
	if err != nil {
		return "", err
	}
	return cat.Header.Strip(line), nil
}

// ReadMessages reads raw or ground-truth-annotated log lines; maxLines ≤ 0
// reads everything.
func ReadMessages(r io.Reader, maxLines int) ([]Message, error) {
	return core.ReadMessages(r, maxLines)
}

// Input-hardening knobs for reading real-world (possibly corrupt) logs; see
// ReadMessagesOpts.
type (
	// ReadOptions selects the line format, strict/lenient handling of
	// corrupt lines, and the per-line size cap.
	ReadOptions = core.ReadOptions
	// ReadStats reports how many corrupt, ambiguous and oversized lines a
	// lenient read tolerated.
	ReadStats = core.ReadStats
	// CorruptLineError is the typed error strict reads fail with.
	CorruptLineError = core.CorruptLineError
)

// Line-format constants for ReadOptions.Format.
const (
	FormatAuto      = core.FormatAuto
	FormatPlain     = core.FormatPlain
	FormatAnnotated = core.FormatAnnotated
)

// ReadMessagesOpts reads log lines under explicit format, strictness and
// line-size policies. Unlike ReadMessages it survives over-long lines
// (truncating or skipping them instead of aborting the read) and reports
// how many corrupt, ambiguous and oversized lines were tolerated.
func ReadMessagesOpts(r io.Reader, opts ReadOptions) ([]Message, ReadStats, error) {
	return core.ReadMessagesOpts(r, opts)
}

// WriteMessages writes messages in the annotated dataset format
// ReadMessages accepts.
func WriteMessages(w io.Writer, msgs []Message) error { return core.WriteMessages(w, msgs) }

// WriteEvents writes a parse result's log-events file (Fig. 1's left
// output).
func WriteEvents(w io.Writer, r *Result) error { return core.WriteEvents(w, r) }

// WriteStructured writes the structured-log file (Fig. 1's right output).
func WriteStructured(w io.Writer, msgs []Message, r *Result) error {
	return core.WriteStructured(w, msgs, r)
}
