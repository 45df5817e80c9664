package robust

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"logparse/internal/core"
	"logparse/internal/faultinject"
	"logparse/internal/parsers/iplom"
	"logparse/internal/parsers/slct"
	"logparse/internal/telemetry"
)

// testMessages builds a small two-event workload every real tier can parse.
func testMessages(n int) []core.LogMessage {
	msgs := make([]core.LogMessage, n)
	for i := range msgs {
		var l string
		if i%2 == 0 {
			l = fmt.Sprintf("opening file f%d now", i)
		} else {
			l = fmt.Sprintf("closing file f%d now", i)
		}
		msgs[i] = core.LogMessage{LineNo: i + 1, Content: l, Tokens: core.Tokenize(l)}
	}
	return msgs
}

// countParser counts its calls; it fails each with err, or delegates to
// inner when err is nil.
type countParser struct {
	inner core.Parser
	err   error
	calls atomic.Int64
}

func (p *countParser) Name() string { return "count" }

func (p *countParser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

func (p *countParser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	p.calls.Add(1)
	if p.err != nil {
		return nil, p.err
	}
	return p.inner.ParseCtx(ctx, msgs)
}

func TestDegradationChain(t *testing.T) {
	msgs := testMessages(200)
	tests := []struct {
		name      string
		primary   func(t *testing.T) core.Parser
		pol       Policy
		wantTier  int
		wantErrAs func(error) bool // checked against the first attempt's error
		maxWall   time.Duration
	}{
		{
			name:     "hanging primary honouring ctx degrades within deadline",
			primary:  func(t *testing.T) core.Parser { return faultinject.NewHangParser(true) },
			pol:      Policy{Timeout: 50 * time.Millisecond},
			wantTier: 1,
			wantErrAs: func(err error) bool {
				var te *TimeoutError
				return errors.As(err, &te)
			},
			maxWall: 5 * time.Second,
		},
		{
			name: "hanging primary ignoring ctx is abandoned at the deadline",
			primary: func(t *testing.T) core.Parser {
				p := faultinject.NewHangParser(false)
				t.Cleanup(p.Release)
				return p
			},
			pol:      Policy{Timeout: 50 * time.Millisecond},
			wantTier: 1,
			wantErrAs: func(err error) bool {
				var te *TimeoutError
				return errors.As(err, &te)
			},
			maxWall: 5 * time.Second,
		},
		{
			name:     "panicking primary degrades",
			primary:  func(t *testing.T) core.Parser { return faultinject.PanicParser{} },
			pol:      Policy{Timeout: time.Second},
			wantTier: 1,
			wantErrAs: func(err error) bool {
				var pe *PanicError
				return errors.As(err, &pe)
			},
		},
		{
			name: "erroring primary degrades",
			primary: func(t *testing.T) core.Parser {
				return &countParser{err: errors.New("permanent")}
			},
			pol:      Policy{},
			wantTier: 1,
		},
		{
			name:     "healthy primary serves tier 0",
			primary:  func(t *testing.T) core.Parser { return iplom.New(iplom.Options{}) },
			pol:      Policy{Timeout: time.Minute},
			wantTier: 0,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			p, err := Wrap(tc.pol, tc.primary(t), iplom.New(iplom.Options{}))
			if err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			res, att, err := p.ParseAttributed(context.Background(), msgs)
			elapsed := time.Since(start)
			if err != nil {
				t.Fatalf("chain failed: %v", err)
			}
			if err := res.Validate(len(msgs)); err != nil {
				t.Fatal(err)
			}
			if att.Tier != tc.wantTier {
				t.Errorf("served by tier %d (%s), want %d", att.Tier, att.TierName, tc.wantTier)
			}
			if wantDegraded := tc.wantTier > 0; att.Degraded != wantDegraded {
				t.Errorf("Degraded = %v, want %v", att.Degraded, wantDegraded)
			}
			if tc.wantTier > 0 && len(att.Attempts) == 0 {
				t.Fatal("degraded parse recorded no failed attempts")
			}
			if tc.wantErrAs != nil && !tc.wantErrAs(att.Attempts[0].Err) {
				t.Errorf("attempt 0 error = %v, wrong type", att.Attempts[0].Err)
			}
			if tc.maxWall > 0 && elapsed > tc.maxWall {
				t.Errorf("took %v, want < %v", elapsed, tc.maxWall)
			}
		})
	}
}

func TestTierAttributionNames(t *testing.T) {
	msgs := testMessages(100)
	p, err := New(Policy{Timeout: 50 * time.Millisecond},
		Tier{Name: "primary", Parser: faultinject.NewHangParser(true)},
		Tier{Name: "secondary", Parser: faultinject.PanicParser{}},
		Tier{Name: "tertiary", Parser: slct.New(slct.Options{Support: 5})},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, att, err := p.ParseAttributed(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if att.TierName != "tertiary" || att.Tier != 2 {
		t.Errorf("served by %q (tier %d), want tertiary (2)", att.TierName, att.Tier)
	}
	var names []string
	for _, a := range att.Attempts {
		names = append(names, a.TierName)
	}
	if got := strings.Join(names, ","); got != "primary,secondary" {
		t.Errorf("failed attempts = %s, want primary,secondary", got)
	}
	if got := p.Name(); got != "Robust(primary→secondary→tertiary)" {
		t.Errorf("Name() = %q", got)
	}
}

// TestFailingTierTriedOnceThenDegrades: a tier that fails is not tried
// again; the chain moves straight on to the next tier.
func TestFailingTierTriedOnceThenDegrades(t *testing.T) {
	msgs := testMessages(100)
	tel := telemetry.New()
	failing := &countParser{err: errors.New("permanent failure")}
	p, err := Wrap(Policy{Telemetry: tel}, failing, iplom.New(iplom.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	_, att, err := p.ParseAttributed(context.Background(), msgs)
	if err != nil {
		t.Fatal(err)
	}
	if got := failing.calls.Load(); got != 1 {
		t.Errorf("failing tier called %d times, want 1", got)
	}
	if len(att.Attempts) != 1 {
		t.Errorf("%d failed attempts recorded, want 1", len(att.Attempts))
	}
	if att.Tier != 1 {
		t.Errorf("served by tier %d, want 1", att.Tier)
	}
	if got := tel.Snapshot().Counters["robust.attempts"]; got != 2 {
		t.Errorf("robust.attempts = %d, want 2 (failing tier once, then the fallback)", got)
	}
}

func TestAllTiersFailReturnsChainError(t *testing.T) {
	msgs := testMessages(20)
	hang := faultinject.NewHangParser(true)
	p, err := New(Policy{Timeout: 20 * time.Millisecond},
		Tier{Parser: faultinject.PanicParser{}},
		Tier{Parser: hang},
	)
	if err != nil {
		t.Fatal(err)
	}
	_, att, err := p.ParseAttributed(context.Background(), msgs)
	if err == nil {
		t.Fatal("chain of doomed tiers succeeded")
	}
	var ce *ChainError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %T %v, want *ChainError", err, err)
	}
	if len(ce.Attempts) != 2 {
		t.Errorf("ChainError has %d attempts, want 2", len(ce.Attempts))
	}
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Error("ChainError does not unwrap to the primary's PanicError")
	}
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Error("ChainError does not unwrap to the fallback's TimeoutError")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Error("TimeoutError inside ChainError does not satisfy errors.Is(DeadlineExceeded)")
	}
	if att.Tier != -1 {
		t.Errorf("attribution tier = %d, want -1", att.Tier)
	}
	if s := p.Stats(); s.Exhausted != 1 || s.Panics != 1 || s.Timeouts != 1 {
		t.Errorf("stats = %+v, want 1 exhausted, 1 panic, 1 timeout", s)
	}
}

func TestCallerCancellationAbortsChain(t *testing.T) {
	msgs := testMessages(20)
	fallback := &countParser{inner: iplom.New(iplom.Options{})}
	p, err := Wrap(Policy{}, faultinject.NewHangParser(true), fallback)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	_, _, err = p.ParseAttributed(ctx, msgs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := fallback.calls.Load(); got != 0 {
		t.Errorf("cancelled request still burned the fallback tier (%d calls)", got)
	}
}

func TestEmptyInput(t *testing.T) {
	p, err := Wrap(Policy{}, iplom.New(iplom.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Parse(nil); !errors.Is(err, core.ErrNoMessages) {
		t.Errorf("err = %v, want ErrNoMessages", err)
	}
}

func TestNewRejectsEmptyChain(t *testing.T) {
	if _, err := New(Policy{}); !errors.Is(err, ErrNoTiers) {
		t.Errorf("err = %v, want ErrNoTiers", err)
	}
}

func TestConcurrentParses(t *testing.T) {
	msgs := testMessages(200)
	p, err := Wrap(Policy{Timeout: 30 * time.Second}, faultinject.PanicParser{}, iplom.New(iplom.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.Parse(msgs); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	s := p.Stats()
	if s.ServedByTier[1] != 8 || s.Panics != 8 {
		t.Errorf("stats = %+v, want 8 served on tier 1 and 8 panics", s)
	}
}
