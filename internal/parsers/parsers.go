// Package parsers is the table of the toolkit's log parsers: one row per
// algorithm holding everything the toolkit knows about it — its name,
// whether the paper studies it, whether it reads a seed, its Fig. 2 plot
// marker, its conformance sample size and how to build it from the union
// Options. The facade, the experiment drivers and the conformance suite
// all read this table; none keeps a name list or a constructor switch of
// its own.
package parsers

import (
	"fmt"
	"strings"

	"logparse/internal/core"
	"logparse/internal/parsers/drain"
	"logparse/internal/parsers/iplom"
	"logparse/internal/parsers/lke"
	"logparse/internal/parsers/logsig"
	"logparse/internal/parsers/slct"
	"logparse/internal/parsers/spell"
	"logparse/internal/telemetry"
)

// Options carries the union of all parser parameters; each algorithm reads
// only its own fields and falls back to its published defaults for zero
// values. See the paper's §II-B for what each knob controls.
type Options struct {
	// Seed drives randomised algorithms (LKE threshold sampling, LogSig
	// initialisation).
	Seed int64

	// Support is SLCT's absolute support threshold; SupportFrac expresses
	// it as a fraction of the input when Support is 0.
	Support     int
	SupportFrac float64

	// FileSupport, PartitionSupport, LowerBound, UpperBound,
	// ClusterGoodness, VariableRatio and MappingRatio are IPLoM's
	// thresholds.
	FileSupport      float64
	PartitionSupport float64
	LowerBound       float64
	UpperBound       float64
	ClusterGoodness  float64
	VariableRatio    float64
	MappingRatio     float64

	// Threshold, Nu, SplitRatio and MaxMessages configure LKE. MaxMessages
	// guards LKE's Θ(n²) clustering; Parse fails beyond it.
	Threshold   float64
	Nu          float64
	SplitRatio  float64
	MaxMessages int

	// NumGroups is LogSig's k (required for LogSig); MaxIterations caps
	// its local search; Restarts reruns it from several initialisations
	// keeping the highest-potential solution.
	NumGroups     int
	MaxIterations int
	Restarts      int

	// Depth, SimThreshold and MaxChildren configure Drain's prefix tree
	// (tree depth, leaf similarity threshold, per-node fan-out cap).
	Depth        int
	SimThreshold float64
	MaxChildren  int

	// Tau is Spell's LCS acceptance threshold in (0,1].
	Tau float64

	// Telemetry, when non-nil, instruments the built parser with stage
	// spans, parse counters and duration histograms. Nil — the zero value
	// — leaves the parser uninstrumented at zero cost.
	Telemetry *telemetry.Handle
}

// Row is one parser.
type Row struct {
	// Name is the canonical name, the one the built parser's Name reports.
	Name string
	// Paper marks the four parsers the paper studies; its tables and
	// figures sweep exactly these.
	Paper bool
	// Seeded reports whether the parser reads Options.Seed. A seeded
	// parser is averaged over several runs (the paper uses 10); a seedless
	// one gives the same output for every seed and runs once.
	Seeded bool
	// Marker draws the parser's series in the Fig. 2 chart.
	Marker byte
	// ConformN is the sample size of the parser's conformance cells: the
	// Θ(n²) LKE and the slow local search of LogSig get smaller ones.
	ConformN int
	// New builds the batch parser.
	New func(Options) (core.Parser, error)
	// Online builds the streaming-native learner; nil for a parser that
	// has none.
	Online func(Options) core.OnlineParser
}

// Runs is how many of runs repetitions the parser needs: all of them when
// it is seeded, one when it is not.
func (r *Row) Runs(runs int) int {
	if r.Seeded {
		return runs
	}
	return 1
}

// rows is the table: the paper's four in its order, then the
// streaming-native additions (He et al., ICWS'17 Drain; Du & Li, ICDM'16
// Spell).
var rows = []*Row{
	{Name: "SLCT", Paper: true, Marker: 'S', ConformN: 500, New: func(o Options) (core.Parser, error) {
		return slct.New(slct.Options{Support: o.Support, SupportFrac: o.SupportFrac, Telemetry: o.Telemetry}), nil
	}},
	{Name: "IPLoM", Paper: true, Marker: 'I', ConformN: 500, New: func(o Options) (core.Parser, error) {
		return iplom.New(iplom.Options{
			FileSupport:      o.FileSupport,
			PartitionSupport: o.PartitionSupport,
			LowerBound:       o.LowerBound,
			UpperBound:       o.UpperBound,
			ClusterGoodness:  o.ClusterGoodness,
			VariableRatio:    o.VariableRatio,
			MappingRatio:     o.MappingRatio,
			Telemetry:        o.Telemetry,
		}), nil
	}},
	{Name: "LKE", Paper: true, Seeded: true, Marker: 'K', ConformN: 150, New: func(o Options) (core.Parser, error) {
		return lke.New(lke.Options{
			Threshold:   o.Threshold,
			Nu:          o.Nu,
			SplitRatio:  o.SplitRatio,
			Seed:        o.Seed,
			MaxMessages: o.MaxMessages,
			Telemetry:   o.Telemetry,
		}), nil
	}},
	{Name: "LogSig", Paper: true, Seeded: true, Marker: 'L', ConformN: 200, New: func(o Options) (core.Parser, error) {
		if o.NumGroups <= 0 {
			return nil, fmt.Errorf("parsers: LogSig requires NumGroups (k) > 0")
		}
		return logsig.New(logsig.Options{
			NumGroups:     o.NumGroups,
			MaxIterations: o.MaxIterations,
			Seed:          o.Seed,
			Restarts:      o.Restarts,
			Telemetry:     o.Telemetry,
		}), nil
	}},
	{Name: "Drain", Marker: 'D', ConformN: 500,
		New:    func(o Options) (core.Parser, error) { return drain.New(drainOptions(o)), nil },
		Online: func(o Options) core.OnlineParser { return drain.NewStream(drainOptions(o)) },
	},
	{Name: "Spell", Marker: 'P', ConformN: 500,
		New:    func(o Options) (core.Parser, error) { return spell.New(spellOptions(o)), nil },
		Online: func(o Options) core.OnlineParser { return spell.NewStream(spellOptions(o)) },
	},
}

func drainOptions(o Options) drain.Options {
	return drain.Options{Depth: o.Depth, SimThreshold: o.SimThreshold, MaxChildren: o.MaxChildren, Telemetry: o.Telemetry}
}

func spellOptions(o Options) spell.Options {
	return spell.Options{Tau: o.Tau, Telemetry: o.Telemetry}
}

// Names lists, in table order, the parsers whose row keep accepts; a nil
// keep accepts all six.
func Names(keep func(*Row) bool) []string {
	var out []string
	for _, r := range rows {
		if keep == nil || keep(r) {
			out = append(out, r.Name)
		}
	}
	return out
}

// ByName returns the row for a parser name (case-insensitive); an unknown
// name's error lists the known ones.
func ByName(name string) (*Row, error) {
	for _, r := range rows {
		if strings.EqualFold(r.Name, name) {
			return r, nil
		}
	}
	return nil, fmt.Errorf("parsers: unknown parser %q (want one of %s)", name, strings.Join(Names(nil), ", "))
}
