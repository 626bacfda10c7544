package serve

import (
	"testing"
	"time"

	"vf2boost/internal/clock"
)

// TestBreakerConsecutiveTimeoutsTrip: a run of timed-out rounds opens the
// circuit regardless of the rate window.
func TestBreakerConsecutiveTimeoutsTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{ConsecTimeouts: 3, Cooldown: time.Hour})
	for i := 0; i < 2; i++ {
		b.Failure(true)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after 2 timeouts = %v, want closed", b.State())
	}
	b.Failure(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state after 3 consecutive timeouts = %v, want open", b.State())
	}
	if b.Opens() != 1 {
		t.Errorf("Opens = %d, want 1", b.Opens())
	}
	if ok, _ := b.Allow(); ok {
		t.Error("open breaker admitted a round before its cooldown")
	}
	if b.CooldownRemaining() <= 0 {
		t.Error("open breaker reports no cooldown remaining")
	}
}

// TestBreakerSuccessResetsTimeoutRun: a success between timeouts breaks
// the consecutive count.
func TestBreakerSuccessResetsTimeoutRun(t *testing.T) {
	b := NewBreaker(BreakerConfig{ConsecTimeouts: 2, Window: 64, MinSamples: 64})
	b.Failure(true)
	b.Success()
	b.Failure(true)
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v after interleaved success, want closed", b.State())
	}
	b.Failure(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v after 2 consecutive timeouts, want open", b.State())
	}
}

// TestBreakerFailureRateTrip: the rolling-window failure rate trips only
// once MinSamples outcomes exist.
func TestBreakerFailureRateTrip(t *testing.T) {
	b := NewBreaker(BreakerConfig{Window: 8, FailureRate: 0.5, MinSamples: 4, ConsecTimeouts: 100, Cooldown: time.Hour})
	// One failure out of one sample is a 100% rate, but below MinSamples.
	b.Failure(false)
	if b.State() != BreakerClosed {
		t.Fatal("breaker tripped below MinSamples")
	}
	b.Success()
	b.Success()
	// 4th sample: 2 failures / 4 samples = exactly the 0.5 threshold.
	b.Failure(false)
	if b.State() != BreakerOpen {
		t.Fatalf("state = %v at 50%% failure rate over MinSamples, want open", b.State())
	}
}

// TestBreakerProbeRecovery: after the cooldown exactly one probe is
// admitted; its success closes the circuit with a clean window.
func TestBreakerProbeRecovery(t *testing.T) {
	fk := clock.NewFake()
	b := NewBreaker(BreakerConfig{ConsecTimeouts: 1, Cooldown: 20 * time.Millisecond, clock: fk})
	b.Failure(true)
	if b.State() != BreakerOpen {
		t.Fatal("breaker did not open")
	}
	fk.Advance(20*time.Millisecond - time.Nanosecond)
	if ok, _ := b.Allow(); ok {
		t.Fatal("round admitted during cooldown")
	}
	if rem := b.CooldownRemaining(); rem != time.Nanosecond {
		t.Fatalf("cooldown remaining = %v a nanosecond before its end", rem)
	}
	fk.Advance(time.Nanosecond)
	ok, probe := b.Allow()
	if !ok || !probe {
		t.Fatalf("Allow after cooldown = (%v, %v), want probe admission", ok, probe)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", b.State())
	}
	// No second round while the probe is out.
	if ok, _ := b.Allow(); ok {
		t.Fatal("second round admitted while probe in flight")
	}
	b.Success()
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe success = %v, want closed", b.State())
	}
	// The window was cleared: one failure must not trip via stale history.
	b.Failure(false)
	if b.State() != BreakerClosed {
		t.Error("stale window outcomes survived the probe recovery")
	}
}

// TestBreakerProbeFailureReopens: a failed probe re-opens the circuit for
// another cooldown.
func TestBreakerProbeFailureReopens(t *testing.T) {
	fk := clock.NewFake()
	b := NewBreaker(BreakerConfig{ConsecTimeouts: 1, Cooldown: 20 * time.Millisecond, clock: fk})
	b.Failure(true)
	fk.Advance(20 * time.Millisecond)
	if ok, probe := b.Allow(); !ok || !probe {
		t.Fatal("no probe admitted after cooldown")
	}
	b.Failure(true)
	if b.State() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", b.State())
	}
	if b.Opens() != 2 {
		t.Errorf("Opens = %d, want 2 (initial trip + failed probe)", b.Opens())
	}
	if ok, _ := b.Allow(); ok {
		t.Error("round admitted right after failed probe")
	}
	if rem := b.CooldownRemaining(); rem != 20*time.Millisecond {
		t.Errorf("cooldown remaining = %v right after the failed probe, want a full 20ms", rem)
	}
}

// TestBreakerStaleOutcomesIgnoredWhileOpen: outcomes of rounds admitted
// before the trip must not disturb the open state.
func TestBreakerStaleOutcomesIgnoredWhileOpen(t *testing.T) {
	b := NewBreaker(BreakerConfig{ConsecTimeouts: 1, Cooldown: time.Hour})
	b.Failure(true)
	b.Success() // stale success from a round that raced the trip
	if b.State() != BreakerOpen {
		t.Fatalf("stale success flipped state to %v", b.State())
	}
	b.Failure(false)
	if b.Opens() != 1 {
		t.Errorf("stale failure re-tripped: Opens = %d, want 1", b.Opens())
	}
}
