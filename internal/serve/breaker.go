package serve

import (
	"sync"
	"time"

	"vf2boost/internal/clock"
)

// BreakerState is a circuit breaker's position. The zero value is Closed.
type BreakerState int32

const (
	// BreakerClosed passes traffic and records outcomes.
	BreakerClosed BreakerState = iota
	// BreakerHalfOpen lets exactly one probe through after the cooldown;
	// its outcome decides between Closed and Open.
	BreakerHalfOpen
	// BreakerOpen rejects traffic until the cooldown expires.
	BreakerOpen
)

// String renders the state for logs and /metricsz labels.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerHalfOpen:
		return "half-open"
	case BreakerOpen:
		return "open"
	}
	return "unknown"
}

// BreakerConfig tunes one sidecar link's circuit breaker. The zero value
// is usable: every field <= 0 falls back to its default.
type BreakerConfig struct {
	// Window is the number of recent round outcomes the failure rate is
	// computed over (default 16).
	Window int
	// FailureRate trips the breaker when failures/window reaches it and
	// the window holds at least MinSamples outcomes (default 0.5).
	FailureRate float64
	// MinSamples is the minimum outcomes before the rate can trip
	// (default 4) — one unlucky first round must not open the circuit.
	MinSamples int
	// ConsecTimeouts trips the breaker after this many timed-out rounds
	// in a row, regardless of the rate window (default 3) — a hung
	// sidecar burns a full deadline per round, so it is cut fast.
	ConsecTimeouts int
	// Cooldown is how long the breaker stays open before admitting a
	// half-open probe (default 2s).
	Cooldown time.Duration

	// clock is the time source of the cooldown; tests put it on virtual
	// time, everything else leaves it nil for the wall clock.
	clock clock.Clock
}

func (c *BreakerConfig) defaults() {
	if c.Window <= 0 {
		c.Window = 16
	}
	if c.FailureRate <= 0 || c.FailureRate > 1 {
		c.FailureRate = 0.5
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 4
	}
	if c.ConsecTimeouts <= 0 {
		c.ConsecTimeouts = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 2 * time.Second
	}
	if c.clock == nil {
		c.clock = clock.Wall{}
	}
}

// Breaker is a closed/open/half-open circuit breaker over one sidecar
// link. Round outcomes feed a rolling window; the circuit opens on a high
// failure rate or a run of consecutive timeouts, rejects traffic for the
// cooldown, then admits a single probe whose outcome closes or re-opens
// it. All methods are safe for concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu             sync.Mutex
	state          BreakerState
	window         []bool // ring buffer of outcomes, true = failure
	widx, wlen     int
	fails          int // failures currently in the window
	consecTimeouts int
	openedAt       time.Time
	opens          int64
}

// NewBreaker creates a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	cfg.defaults()
	return &Breaker{cfg: cfg, window: make([]bool, cfg.Window)}
}

// Allow reports whether a round may use the link. probe is true when this
// admission is the half-open probe — the caller must report its outcome
// via Success or Failure, which decides the breaker's next state; no
// further traffic is admitted until then.
func (b *Breaker) Allow() (ok, probe bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true, false
	case BreakerOpen:
		if b.cfg.clock.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			b.state = BreakerHalfOpen
			return true, true
		}
		return false, false
	default: // half-open: a probe is already in flight
		return false, false
	}
}

// Success records a healthy round. In half-open state it closes the
// circuit and clears the outcome window.
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.reset()
		return
	}
	if b.state == BreakerOpen {
		return // stale outcome from a round admitted before the trip
	}
	b.record(false)
	b.consecTimeouts = 0
}

// Failure records a failed round; timeout marks it as a deadline expiry
// (the consecutive-timeout trip condition). In half-open state the probe
// failed and the circuit re-opens for another cooldown.
func (b *Breaker) Failure(timeout bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == BreakerHalfOpen {
		b.open()
		return
	}
	if b.state == BreakerOpen {
		return
	}
	b.record(true)
	if timeout {
		b.consecTimeouts++
	} else {
		b.consecTimeouts = 0
	}
	if b.consecTimeouts >= b.cfg.ConsecTimeouts {
		b.open()
		return
	}
	if b.wlen >= b.cfg.MinSamples && float64(b.fails)/float64(b.wlen) >= b.cfg.FailureRate {
		b.open()
	}
}

// record pushes one outcome into the ring. Callers hold b.mu.
func (b *Breaker) record(failure bool) {
	if b.wlen == len(b.window) {
		if b.window[b.widx] {
			b.fails--
		}
	} else {
		b.wlen++
	}
	b.window[b.widx] = failure
	if failure {
		b.fails++
	}
	b.widx = (b.widx + 1) % len(b.window)
}

// open trips the circuit. Callers hold b.mu.
func (b *Breaker) open() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.clock.Now()
	b.opens++
	b.reset_window()
	b.consecTimeouts = 0
}

// reset closes the circuit with a clean slate. Callers hold b.mu.
func (b *Breaker) reset() {
	b.state = BreakerClosed
	b.reset_window()
	b.consecTimeouts = 0
}

func (b *Breaker) reset_window() {
	for i := range b.window {
		b.window[i] = false
	}
	b.widx, b.wlen, b.fails = 0, 0, 0
}

// State returns the breaker's current position, accounting for an
// expired cooldown (an open breaker past its cooldown reports half-open
// readiness only once a probe is admitted, so State stays truthful).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the circuit has tripped open.
func (b *Breaker) Opens() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// CooldownRemaining returns how long until an open breaker admits its
// probe (zero when not open or already due) — the Retry-After hint.
func (b *Breaker) CooldownRemaining() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state != BreakerOpen {
		return 0
	}
	rem := b.cfg.Cooldown - b.cfg.clock.Now().Sub(b.openedAt)
	if rem < 0 {
		return 0
	}
	return rem
}
