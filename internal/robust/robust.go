// Package robust is the fault-tolerant execution layer around the toolkit's
// parsers. The paper's RQ2 shows parser cost is wildly uneven — LKE is Θ(n²)
// and LogSig's local search can run orders of magnitude longer than
// SLCT/IPLoM on the same input — so a production service typing live traffic
// cannot run any parser as an unbounded, panic-propagating call. Parser
// wraps a configurable chain of tiers and guarantees that every parse
// returns either a result (possibly from a degraded tier) or a typed error:
//
//   - panics inside a tier are recovered into *PanicError;
//   - each tier attempt runs under a per-parse deadline (Policy.Timeout)
//     and surfaces as *TimeoutError when exceeded;
//   - on any failure the next tier is tried once (e.g. LogSig → IPLoM →
//     SLCT), and the served tier is recorded both per call (Attribution)
//     and cumulatively (Stats).
//
// Tiers that honour context cancellation (all four built-in parsers do)
// stop promptly on deadline expiry; a tier that ignores its context is
// abandoned on its goroutine — the wrapper still returns on time, and the
// runaway goroutine exits whenever the tier eventually returns or panics.
package robust

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"
	"time"

	"logparse/internal/core"
	"logparse/internal/telemetry"
)

// Policy configures a robust Parser. The zero value means no deadline and
// no telemetry.
type Policy struct {
	// Timeout bounds every tier attempt; 0 disables the deadline. The
	// caller's context, when it expires earlier, always wins.
	Timeout time.Duration
	// Telemetry, when non-nil, records chain counters (attempts, panics,
	// timeouts, degradations, per-tier serves), per-attempt duration
	// histograms, and a span tree per parse whose tier-attempt children
	// nest the tier parser's own stage spans. Nil is free.
	Telemetry *telemetry.Handle
}

// Tier is one level of the degradation chain. Name defaults to the parser's
// own Name when empty.
type Tier struct {
	Name   string
	Parser core.Parser
}

// Attribution reports how one parse was served: the tier index and name
// that produced the result, whether that was a degraded (non-primary) tier,
// and every failed attempt along the way.
type Attribution struct {
	Tier     int
	TierName string
	Degraded bool
	Attempts []Attempt
}

// Stats is a snapshot of a Parser's cumulative counters.
type Stats struct {
	// ServedByTier counts successful parses per tier index.
	ServedByTier []uint64
	// Panics, Timeouts and Exhausted count recovered panics, tier
	// deadline expiries, and parses where every tier failed.
	Panics    uint64
	Timeouts  uint64
	Exhausted uint64
}

// Parser is a fault-tolerant core.Parser: a degradation chain of tiers
// executed under Policy. Safe for concurrent use.
type Parser struct {
	tiers []Tier
	pol   Policy

	served    []atomic.Uint64
	panics    atomic.Uint64
	timeouts  atomic.Uint64
	exhausted atomic.Uint64

	// Pre-resolved telemetry instruments (all nil when telemetry is off,
	// in which case every call below no-ops without allocating).
	tel        *telemetry.Handle
	mAttempts  *telemetry.Counter
	mPanics    *telemetry.Counter
	mTimeouts  *telemetry.Counter
	mDegraded  *telemetry.Counter
	mExhausted *telemetry.Counter
	mServed    []*telemetry.Counter
	hAttempt   *telemetry.Histogram
	spanNames  []string // "tier.<name>" per tier, precomputed
}

var _ core.Parser = (*Parser)(nil)

// New builds a robust parser over a fallback chain, tried in order.
func New(pol Policy, tiers ...Tier) (*Parser, error) {
	if len(tiers) == 0 {
		return nil, ErrNoTiers
	}
	ts := make([]Tier, len(tiers))
	for i, t := range tiers {
		if t.Parser == nil {
			return nil, fmt.Errorf("robust: tier %d has a nil parser", i)
		}
		if t.Name == "" {
			t.Name = t.Parser.Name()
		}
		ts[i] = t
	}
	p := &Parser{
		tiers:  ts,
		pol:    pol,
		served: make([]atomic.Uint64, len(ts)),
	}
	p.tel = pol.Telemetry
	p.mAttempts = p.tel.Counter("robust.attempts")
	p.mPanics = p.tel.Counter("robust.panics")
	p.mTimeouts = p.tel.Counter("robust.timeouts")
	p.mDegraded = p.tel.Counter("robust.degraded")
	p.mExhausted = p.tel.Counter("robust.exhausted")
	p.mServed = make([]*telemetry.Counter, len(ts))
	p.spanNames = make([]string, len(ts))
	for i, t := range ts {
		p.mServed[i] = p.tel.Counter("robust.served." + t.Name)
		p.spanNames[i] = "tier." + t.Name
	}
	p.hAttempt = p.tel.Histogram("robust.tier.seconds", telemetry.DurationBuckets)
	return p, nil
}

// Wrap is New for plain parsers: primary first, then fallbacks.
func Wrap(pol Policy, primary core.Parser, fallbacks ...core.Parser) (*Parser, error) {
	tiers := make([]Tier, 0, 1+len(fallbacks))
	tiers = append(tiers, Tier{Parser: primary})
	for _, f := range fallbacks {
		tiers = append(tiers, Tier{Parser: f})
	}
	return New(pol, tiers...)
}

// Name implements core.Parser, e.g. "Robust(LogSig→IPLoM→SLCT)".
func (p *Parser) Name() string {
	names := make([]string, len(p.tiers))
	for i, t := range p.tiers {
		names[i] = t.Name
	}
	return "Robust(" + strings.Join(names, "→") + ")"
}

// Tiers returns the chain's tier names in order.
func (p *Parser) Tiers() []string {
	names := make([]string, len(p.tiers))
	for i, t := range p.tiers {
		names[i] = t.Name
	}
	return names
}

// Stats returns a snapshot of the cumulative counters.
func (p *Parser) Stats() Stats {
	s := Stats{ServedByTier: make([]uint64, len(p.served))}
	for i := range p.served {
		s.ServedByTier[i] = p.served[i].Load()
	}
	s.Panics = p.panics.Load()
	s.Timeouts = p.timeouts.Load()
	s.Exhausted = p.exhausted.Load()
	return s
}

// Parse implements core.Parser.
func (p *Parser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser, discarding the attribution.
func (p *Parser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	res, _, err := p.ParseAttributed(ctx, msgs)
	return res, err
}

// ParseAttributed runs the degradation chain and additionally reports which
// tier served the request and what failed along the way. The attribution is
// non-nil even on error (Tier is −1 when no tier succeeded).
func (p *Parser) ParseAttributed(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, *Attribution, error) {
	att := &Attribution{Tier: -1}
	if len(msgs) == 0 {
		return nil, att, core.ErrNoMessages
	}
	sp := p.tel.SpanFrom(ctx, "robust.parse")
	defer sp.End()
	for ti, tier := range p.tiers {
		if err := ctx.Err(); err != nil {
			return nil, att, err
		}
		p.mAttempts.Inc()
		asp := sp.Child(p.spanNames[ti])
		start := time.Now()
		res, err := p.runTier(telemetry.ContextWith(ctx, asp), tier, msgs)
		asp.End()
		p.hAttempt.Observe(time.Since(start).Seconds())
		if err == nil {
			if verr := res.Validate(len(msgs)); verr != nil {
				// A structurally invalid result is as unusable as an
				// error; degrade instead of handing it to the caller.
				err = fmt.Errorf("robust: tier %s returned invalid result: %w", tier.Name, verr)
			}
		}
		if err == nil {
			att.Tier, att.TierName, att.Degraded = ti, tier.Name, ti > 0
			p.served[ti].Add(1)
			p.mServed[ti].Inc()
			if ti > 0 {
				p.mDegraded.Inc()
			}
			return res, att, nil
		}
		att.Attempts = append(att.Attempts, Attempt{
			Tier: ti, TierName: tier.Name, Err: err, Elapsed: time.Since(start),
		})
		var pe *PanicError
		if errors.As(err, &pe) {
			p.panics.Add(1)
			p.mPanics.Inc()
		}
		var te *TimeoutError
		if errors.As(err, &te) {
			p.timeouts.Add(1)
			p.mTimeouts.Inc()
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller's context ended: abort the whole chain rather
			// than burning the remaining tiers on a dead request.
			return nil, att, cerr
		}
	}
	p.exhausted.Add(1)
	p.mExhausted.Inc()
	return nil, att, &ChainError{Attempts: att.Attempts}
}

// runTier executes one tier attempt under the per-tier deadline with panic
// isolation. A tier that ignores its context is abandoned at the deadline:
// the select returns on tctx.Done and the tier goroutine is left to finish
// (or leak, if it hangs forever — which the deadline exists to contain).
func (p *Parser) runTier(ctx context.Context, tier Tier, msgs []core.LogMessage) (*core.ParseResult, error) {
	tctx := ctx
	if p.pol.Timeout > 0 {
		var cancel context.CancelFunc
		tctx, cancel = context.WithTimeout(ctx, p.pol.Timeout)
		defer cancel()
	}
	type outcome struct {
		res *core.ParseResult
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := safeParseCtx(tctx, tier.Parser, msgs)
		done <- outcome{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil && ctx.Err() == nil && errors.Is(o.err, context.DeadlineExceeded) {
			// The tier noticed its own deadline; normalise to TimeoutError.
			return nil, &TimeoutError{Parser: tier.Name, Timeout: p.pol.Timeout}
		}
		return o.res, o.err
	case <-tctx.Done():
		if err := ctx.Err(); err != nil {
			return nil, err // caller cancelled, not a tier timeout
		}
		return nil, &TimeoutError{Parser: tier.Name, Timeout: p.pol.Timeout}
	}
}

// safeParseCtx runs parser.ParseCtx in the calling goroutine, converting a
// panic into a *PanicError.
func safeParseCtx(ctx context.Context, parser core.Parser, msgs []core.LogMessage) (res *core.ParseResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			res = nil
			err = &PanicError{Parser: parser.Name(), Value: r, Stack: debug.Stack()}
		}
	}()
	return parser.ParseCtx(ctx, msgs)
}
