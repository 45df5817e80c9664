package stream

import (
	"testing"
	"time"
)

func TestBreakerOpensAtThresholdAndHalfOpensAfterCooldown(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(0, false, now)

	for i := 0; i < breakerThreshold-1; i++ {
		if !b.allow(now) {
			t.Fatalf("breaker refused attempt %d while closed", i)
		}
		b.failure(now)
	}
	if b.isOpen() {
		t.Fatal("breaker open below threshold")
	}
	b.allow(now)
	b.failure(now) // the threshold's failure
	if !b.isOpen() || b.stateName() != "open" {
		t.Fatalf("breaker state = %s, want open", b.stateName())
	}
	if b.allow(now.Add(breakerCooldown - time.Second)) {
		t.Fatal("breaker allowed a retrain before the cooldown elapsed")
	}
	if !b.allow(now.Add(breakerCooldown)) {
		t.Fatal("breaker refused the half-open probe after the cooldown")
	}
	if b.stateName() != "half-open" {
		t.Fatalf("state = %s, want half-open", b.stateName())
	}
}

func TestBreakerFailedProbeDoublesCooldownUpToCap(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(breakerThreshold-1, false, now)

	b.allow(now)
	b.failure(now) // opens, cooldown 30s
	wantCooldowns := []time.Duration{
		60 * time.Second, 120 * time.Second, 240 * time.Second,
		breakerMaxCooldown, breakerMaxCooldown,
	}
	for _, want := range wantCooldowns {
		now = now.Add(b.cooldown)
		if !b.allow(now) {
			t.Fatalf("probe refused after full cooldown")
		}
		b.failure(now)
		if b.cooldown != want {
			t.Fatalf("cooldown after failed probe = %v, want %v", b.cooldown, want)
		}
	}
}

func TestBreakerSuccessfulProbeClosesAndResets(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(breakerThreshold-1, false, now)
	b.allow(now)
	b.failure(now)
	now = now.Add(breakerCooldown)
	b.allow(now) // half-open
	b.failure(now)
	now = now.Add(b.cooldown)
	b.allow(now) // half-open again, after a doubled cooldown
	b.success()
	if b.isOpen() || b.consecutive != 0 || b.cooldown != breakerCooldown {
		t.Fatalf("after successful probe: open=%v consecutive=%d cooldown=%v", b.isOpen(), b.consecutive, b.cooldown)
	}
}

func TestBreakerRestoredOpenResumesOpen(t *testing.T) {
	now := time.Unix(1000, 0)
	b := newBreaker(5, true, now)
	if !b.isOpen() {
		t.Fatal("restored-open breaker should start open")
	}
	if b.allow(now.Add(breakerCooldown / 2)) {
		t.Fatal("restored-open breaker allowed a retrain before its fresh cooldown elapsed")
	}
	if !b.allow(now.Add(breakerCooldown)) {
		t.Fatal("restored-open breaker refused the probe after the cooldown")
	}
}

// TestBreakerDefaults pins the documented schedule: 3 failures, then a 30 s
// cooldown that doubles up to 16×.
func TestBreakerDefaults(t *testing.T) {
	if breakerThreshold != 3 || breakerCooldown != 30*time.Second || breakerMaxCooldown != 16*breakerCooldown {
		t.Fatalf("schedule = %d failures, %v cooldown, %v cap", breakerThreshold, breakerCooldown, breakerMaxCooldown)
	}
}
