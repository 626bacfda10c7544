package clock

import (
	"math/rand"
	"time"
)

// The retry schedule of every link, defined once: the resilient
// transport's retransmits and redials and the scoring sidecar's redials
// all wait FirstWait, then twice as long after each further attempt up to
// 5 s, every wait spread ±20 % so that links restarted together do not
// retry in step; a dial loop gives up after MaxFails failures in a row.
const (
	FirstWait = 200 * time.Millisecond
	MaxFails  = 20
	maxWait   = 5 * time.Second
	jitter    = 0.2
)

// Backoff walks the retry schedule on a clock. Neither it nor the rng it
// draws its jitter from is safe for concurrent use.
type Backoff struct {
	clock Clock
	rng   *rand.Rand
	next  time.Duration // nominal wait before the next attempt
	fails int           // failed attempts in a row
}

// NewBackoff starts the schedule on c, drawing its jitter from rng.
func NewBackoff(c Clock, rng *rand.Rand) Backoff {
	return Backoff{clock: c, rng: rng, next: FirstWait}
}

// Next returns the wait before the next attempt and doubles the nominal
// wait after it, up to the cap.
func (b *Backoff) Next() time.Duration {
	d := time.Duration(float64(b.next) * (1 + jitter*(2*b.rng.Float64()-1)))
	b.next = min(2*b.next, maxWait)
	return d
}

// Fail counts a failed attempt and waits out Next before the next one.
// It reports false — give up — on the MaxFails-th failure in a row, or
// when done closes first.
func (b *Backoff) Fail(done <-chan struct{}) bool {
	b.fails++
	return b.fails < MaxFails && Sleep(b.clock, b.Next(), done)
}

// Wait waits out Next after an attempt that got through but made no
// progress: it ends a run of failures without resetting the wait. It
// reports false when done closes first.
func (b *Backoff) Wait(done <-chan struct{}) bool {
	b.fails = 0
	return Sleep(b.clock, b.Next(), done)
}

// Reset starts the schedule over after an attempt that made progress.
func (b *Backoff) Reset() { b.next, b.fails = FirstWait, 0 }

// Sleep waits d on c and reports true, or reports false as soon as done
// closes; a nil done never does.
func Sleep(c Clock, d time.Duration, done <-chan struct{}) bool {
	elapsed, stop := After(c, d)
	defer stop()
	select {
	case <-elapsed:
		return true
	case <-done:
		return false
	}
}
