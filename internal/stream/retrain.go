package stream

import (
	"context"

	"logparse/internal/core"
	"logparse/internal/parsers/slct"
	"logparse/internal/robust"
)

// Retrainer mines templates from a batch of unmatched lines. Retrain must
// be deterministic in its input for crash recovery to converge: replaying
// the same buffer must yield the same templates.
type Retrainer interface {
	Name() string
	Retrain(ctx context.Context, lines []string) ([]core.Template, error)
}

// ChainRetrainer runs a robust degradation chain over the batch: an
// optional primary mining parser (IPLoM, LogSig, …) degrading to the
// SLCT tier — the cheapest, most predictable miner in the toolkit.
// Panics, deadlines and errors inside the tiers are absorbed by the robust
// layer; only a fully exhausted chain surfaces as a retrain failure (and
// from there, into the engine's circuit breaker).
type ChainRetrainer struct {
	chain *robust.Parser
}

var _ Retrainer = (*ChainRetrainer)(nil)

// NewRetrainer builds the default retrain chain. primary may be nil, in
// which case the chain is SLCT alone.
func NewRetrainer(pol robust.Policy, primary core.Parser, slctOpts slct.Options) (*ChainRetrainer, error) {
	var tiers []robust.Tier
	if primary != nil {
		tiers = append(tiers, robust.Tier{Parser: primary})
	}
	tiers = append(tiers, robust.Tier{Parser: slct.New(slctOpts)})
	chain, err := robust.New(pol, tiers...)
	if err != nil {
		return nil, err
	}
	return &ChainRetrainer{chain: chain}, nil
}

// Name implements Retrainer, e.g. "Robust(IPLoM→SLCT)".
func (r *ChainRetrainer) Name() string { return r.chain.Name() }

// Retrain implements Retrainer.
func (r *ChainRetrainer) Retrain(ctx context.Context, lines []string) ([]core.Template, error) {
	msgs := make([]core.LogMessage, len(lines))
	for i, line := range lines {
		msgs[i] = core.LogMessage{
			LineNo:  i + 1,
			Content: line,
			Tokens:  core.Tokenize(line),
		}
	}
	res, err := r.chain.ParseCtx(ctx, msgs)
	if err != nil {
		return nil, err
	}
	return res.Templates, nil
}
