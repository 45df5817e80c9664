package logparse

import "logparse/internal/robust"

// Fault-tolerant parsing (the production execution layer). Parser cost is
// wildly uneven across algorithms (RQ2: LKE is Θ(n²), LogSig's local search
// can run orders of magnitude longer than SLCT/IPLoM on the same input), so
// a service typing live traffic wraps every parse in a RobustParser: panics
// become typed errors, each tier attempt runs under a deadline, and on
// timeout, crash or error the parse degrades down a fallback chain — e.g.
// LogSig → IPLoM → SLCT — recording which tier served the request.

type (
	// RobustParser is a fault-tolerant Parser: a degradation chain of
	// tiers executed under a RobustPolicy. Safe for concurrent use.
	RobustParser = robust.Parser
	// RobustPolicy configures the per-tier deadline and telemetry.
	RobustPolicy = robust.Policy
	// ParseAttribution reports which tier served a parse and every failed
	// attempt along the way.
	ParseAttribution = robust.Attribution
	// RobustStats is a snapshot of a RobustParser's cumulative counters.
	RobustStats = robust.Stats
	// ParserPanicError is a parser panic recovered into an error.
	ParserPanicError = robust.PanicError
	// ParseTimeoutError reports a tier exceeding its per-parse deadline;
	// it unwraps to context.DeadlineExceeded.
	ParseTimeoutError = robust.TimeoutError
	// ParseChainError reports that every tier of a chain failed.
	ParseChainError = robust.ChainError
)

// NewRobustParser builds a fault-tolerant parser whose degradation chain
// tries the given algorithms in order (each configured from opts). Typical
// production chains order tiers from most to least accurate, ending with a
// cheap parser that cannot blow up, e.g.
//
//	p, _ := logparse.NewRobustParser([]string{"LogSig", "IPLoM", "SLCT"},
//		logparse.Options{NumGroups: 40},
//		logparse.RobustPolicy{Timeout: 2 * time.Second})
func NewRobustParser(algorithms []string, opts Options, pol RobustPolicy) (*RobustParser, error) {
	tiers := make([]robust.Tier, 0, len(algorithms))
	for _, a := range algorithms {
		p, err := NewParser(a, opts)
		if err != nil {
			return nil, err
		}
		tiers = append(tiers, robust.Tier{Parser: p})
	}
	return robust.New(pol, tiers...)
}
