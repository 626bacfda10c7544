// Package clock is the time source of the shaped link (internal/mq), the
// resilient transport (internal/core), the scoring tier (internal/serve)
// and the chaos layer's stalls (internal/fault), and holds the one retry
// schedule their links follow (Backoff): everything there that reads the
// time or waits goes through a Clock, so tests can drive those layers on
// virtual time (Fake) instead of sleeping on the wall clock.
package clock

import "time"

// Clock tells the time and schedules wake-ups.
type Clock interface {
	Now() time.Time
	// AfterFunc arranges for f to run once d has elapsed (immediately for
	// d <= 0) and returns a function that cancels the call, reporting
	// whether it did so before f started.
	AfterFunc(d time.Duration, f func()) (stop func() bool)
}

// Wall is the real clock.
type Wall struct{}

func (Wall) Now() time.Time { return time.Now() }

func (Wall) AfterFunc(d time.Duration, f func()) func() bool {
	return time.AfterFunc(d, f).Stop
}

// After returns a channel that is closed once d has elapsed on c, and the
// function that cancels the timer behind it.
func After(c Clock, d time.Duration) (fired <-chan struct{}, stop func() bool) {
	ch := make(chan struct{})
	return ch, c.AfterFunc(d, func() { close(ch) })
}
