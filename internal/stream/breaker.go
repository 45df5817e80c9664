package stream

import "time"

// The retrain breaker's schedule: breakerThreshold consecutive retrain
// failures open it, a half-open probe is allowed after breakerCooldown, and
// each failed probe doubles the wait up to breakerMaxCooldown.
const (
	breakerThreshold   = 3
	breakerCooldown    = 30 * time.Second
	breakerMaxCooldown = 16 * breakerCooldown
)

const (
	breakerClosed = iota
	breakerOpen
	breakerHalfOpen
)

// breaker is the engine's retrain circuit breaker. While open, the engine
// serves in the matcher-only tier: known templates keep matching, the
// unmatched buffer is capped by shedding its oldest lines, and no retrain
// is attempted until the cooldown elapses and a half-open probe is allowed.
// A successful probe closes the breaker; a failed one reopens it with a
// doubled cooldown (capped at breakerMaxCooldown).
//
// The breaker is driven from the engine's single consumer goroutine under
// the engine mutex, so it needs no locking of its own.
type breaker struct {
	state       int
	consecutive int
	openedAt    time.Time
	cooldown    time.Duration
}

// newBreaker builds a breaker, optionally restoring checkpointed state: a
// breaker that was open at checkpoint time resumes open with a fresh
// initial cooldown (conservative — the failing tier probably still fails).
func newBreaker(restoredFailures int, restoredOpen bool, now time.Time) *breaker {
	b := &breaker{consecutive: restoredFailures, cooldown: breakerCooldown}
	if restoredOpen {
		b.state = breakerOpen
		b.openedAt = now
	}
	return b
}

// allow reports whether a retrain attempt may proceed now, transitioning
// open → half-open when the cooldown has elapsed.
func (b *breaker) allow(now time.Time) bool {
	switch b.state {
	case breakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = breakerHalfOpen
			return true
		}
		return false
	default: // closed or half-open (probe in flight)
		return true
	}
}

// success records a successful retrain: the breaker closes and the
// cooldown schedule resets.
func (b *breaker) success() {
	b.state = breakerClosed
	b.consecutive = 0
	b.cooldown = breakerCooldown
}

// failure records a failed retrain.
func (b *breaker) failure(now time.Time) {
	b.consecutive++
	if b.state == breakerHalfOpen {
		// Failed probe: back off harder.
		b.cooldown = min(2*b.cooldown, breakerMaxCooldown)
		b.state = breakerOpen
		b.openedAt = now
		return
	}
	if b.consecutive >= breakerThreshold {
		b.state = breakerOpen
		b.openedAt = now
	}
}

// open reports whether the breaker currently refuses retrains.
func (b *breaker) isOpen() bool { return b.state != breakerClosed }

// stateName renders the state for stats.
func (b *breaker) stateName() string {
	switch b.state {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}
