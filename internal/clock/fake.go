package clock

import (
	"sort"
	"sync"
	"time"
)

// Fake is a Clock on virtual time: it moves only when a test calls
// Advance or Drive, and then exactly to the instants timers were set for,
// so what a test observes does not depend on how fast the host runs.
type Fake struct {
	mu      sync.Mutex
	changed *sync.Cond // a timer was added or removed, or an actor returned
	now     time.Time
	timers  []*fakeTimer
	live    int // actors of the Drive in progress that have not returned
}

type fakeTimer struct {
	at time.Time
	f  func()
}

// NewFake returns a fake clock reading an arbitrary fixed instant.
func NewFake() *Fake {
	c := &Fake{now: time.Date(2021, 6, 20, 0, 0, 0, 0, time.UTC)}
	c.changed = sync.NewCond(&c.mu)
	return c
}

func (c *Fake) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *Fake) AfterFunc(d time.Duration, f func()) func() bool {
	if d <= 0 {
		go f()
		return func() bool { return false }
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	t := &fakeTimer{at: c.now.Add(d), f: f}
	c.timers = append(c.timers, t)
	// Stable, so timers set for the same instant fire in creation order.
	sort.SliceStable(c.timers, func(i, j int) bool { return c.timers[i].at.Before(c.timers[j].at) })
	c.changed.Broadcast()
	return func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		for i, x := range c.timers {
			if x == t {
				c.timers = append(c.timers[:i], c.timers[i+1:]...)
				c.changed.Broadcast()
				return true
			}
		}
		return false
	}
}

// BlockUntil returns once at least n timers are pending — the way a test
// learns that the goroutines it started have gone to sleep on the clock.
func (c *Fake) BlockUntil(n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.timers) < n {
		c.changed.Wait()
	}
}

// Advance moves the clock forward by d, running every timer that falls
// due on the way, in order, each at its own instant; it returns when the
// last of them has run.
func (c *Fake) Advance(d time.Duration) {
	c.mu.Lock()
	end := c.now.Add(d)
	for len(c.timers) > 0 && !c.timers[0].at.After(end) {
		c.fireNextLocked()
	}
	c.now = end
	c.mu.Unlock()
}

// Step jumps to the earliest pending timer and runs it — for a driver that
// decides by its own means that nothing else can make progress. It
// reports false, leaving the clock alone, when no timer is pending.
func (c *Fake) Step() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.timers) == 0 {
		return false
	}
	c.fireNextLocked()
	return true
}

// fireNextLocked moves the clock to the earliest timer and runs it with
// the lock released.
func (c *Fake) fireNextLocked() {
	t := c.timers[0]
	c.timers = c.timers[1:]
	c.now = t.at
	c.mu.Unlock()
	t.f()
	c.mu.Lock()
}

// Drive runs the actors concurrently and is their only source of time:
// whenever every actor that has not yet returned is waiting on a timer,
// the clock jumps to the earliest one. It returns once all actors have.
// An actor must block on this clock alone (at most one timer each), or
// Drive cannot tell that it is waiting.
func (c *Fake) Drive(actors ...func()) {
	c.mu.Lock()
	c.live = len(actors)
	c.mu.Unlock()
	for _, run := range actors {
		go func() {
			defer func() {
				c.mu.Lock()
				c.live--
				c.changed.Broadcast()
				c.mu.Unlock()
			}()
			run()
		}()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.live > 0 {
		if len(c.timers) < c.live {
			c.changed.Wait()
			continue
		}
		c.fireNextLocked()
	}
}
