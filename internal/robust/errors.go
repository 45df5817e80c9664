package robust

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"
)

// ErrNoTiers is returned by New when the fallback chain is empty.
var ErrNoTiers = errors.New("robust: fallback chain has no tiers")

// PanicError is a parser panic converted into an error by the isolation
// layer. Value is the recovered panic value, Stack the goroutine stack at
// recovery time.
type PanicError struct {
	Parser string
	Value  any
	Stack  []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("robust: parser %s panicked: %v", e.Parser, e.Value)
}

// TimeoutError reports that one tier exceeded its per-parse deadline. It
// unwraps to context.DeadlineExceeded so errors.Is keeps working.
type TimeoutError struct {
	Parser  string
	Timeout time.Duration
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("robust: parser %s exceeded its %v deadline", e.Parser, e.Timeout)
}

func (e *TimeoutError) Unwrap() error { return context.DeadlineExceeded }

// Attempt records the failed try of one tier: which tier, the error, and
// how long it ran.
type Attempt struct {
	Tier     int
	TierName string
	Err      error
	Elapsed  time.Duration
}

// ChainError reports that every tier of the fallback chain failed; Attempts
// holds the full failure history in order. It unwraps to all attempt errors,
// so errors.Is/As can find e.g. a PanicError from the primary tier.
type ChainError struct {
	Attempts []Attempt
}

func (e *ChainError) Error() string {
	var sb strings.Builder
	sb.WriteString("robust: all tiers failed")
	for _, a := range e.Attempts {
		fmt.Fprintf(&sb, "; %s: %v", a.TierName, a.Err)
	}
	return sb.String()
}

// Unwrap exposes every attempt error to errors.Is/errors.As.
func (e *ChainError) Unwrap() []error {
	errs := make([]error, len(e.Attempts))
	for i, a := range e.Attempts {
		errs[i] = a.Err
	}
	return errs
}
