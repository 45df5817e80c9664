package faultinject

import (
	"context"
	"sync"
	"sync/atomic"

	"logparse/internal/core"
)

// PanicParser is a mock parser that always panics, exercising the robust
// layer's panic isolation.
type PanicParser struct {
	// Value is the panic value; defaults to "faultinject: deliberate panic".
	Value any
}

var _ core.Parser = PanicParser{}

// Name implements core.Parser.
func (PanicParser) Name() string { return "PanicParser" }

// Parse implements core.Parser.
func (p PanicParser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser by panicking.
func (p PanicParser) ParseCtx(context.Context, []core.LogMessage) (*core.ParseResult, error) {
	v := p.Value
	if v == nil {
		v = "faultinject: deliberate panic"
	}
	panic(v)
}

// HangParser is a mock parser that blocks, exercising deadline enforcement.
// With HonorCtx it behaves like a well-behaved slow parser: it returns
// ctx.Err() when the context ends. Without it, it models a wedged parser
// that ignores cancellation: ParseCtx blocks until Release is called, and
// the robust wrapper must abandon it to meet its deadline. Tests call
// Release in cleanup so no goroutine outlives the test.
type HangParser struct {
	HonorCtx bool

	once    sync.Once
	release chan struct{}
	// Hung counts ParseCtx calls that actually blocked.
	Hung atomic.Int64
}

var _ core.Parser = (*HangParser)(nil)

// NewHangParser builds a HangParser.
func NewHangParser(honorCtx bool) *HangParser {
	return &HangParser{HonorCtx: honorCtx, release: make(chan struct{})}
}

// Release unblocks every past and future ParseCtx call.
func (p *HangParser) Release() {
	p.once.Do(func() { close(p.release) })
}

// Name implements core.Parser.
func (p *HangParser) Name() string { return "HangParser" }

// Parse implements core.Parser.
func (p *HangParser) Parse(msgs []core.LogMessage) (*core.ParseResult, error) {
	return p.ParseCtx(context.Background(), msgs)
}

// ParseCtx implements core.Parser by blocking.
func (p *HangParser) ParseCtx(ctx context.Context, msgs []core.LogMessage) (*core.ParseResult, error) {
	p.Hung.Add(1)
	if p.HonorCtx {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-p.release:
			return nil, context.Canceled
		}
	}
	<-p.release
	return nil, context.Canceled
}
