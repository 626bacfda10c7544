// Package fault is a deterministic fault-injection layer for the
// cross-party transports: it wraps any Send/Receive endpoint and drops,
// delays, duplicates, reorders, or hard-disconnects outgoing frames on a
// seeded, reproducible schedule. Chaos tests assert that training under
// injected faults converges to the exact model of a fault-free run; the
// -chaos CLI knob feeds the same wrapper in real deployments, so recovery
// behaviour can be rehearsed against a live gateway.
//
// All faults act on the send path (a dropped frame is indistinguishable
// from a frame lost in flight either way); Receive passes frames through
// untouched but observes the disconnect state, so a severed link fails
// both directions. Every random decision comes from a private rand.Rand
// seeded by Config.Seed — two wrappers with equal configs produce the
// same fault schedule for the same frame sequence.
package fault

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"vf2boost/internal/clock"
)

// Transport is the minimal endpoint the injector wraps. It is structurally
// identical to core.Transport (declared here to keep this package free of
// protocol dependencies).
type Transport interface {
	Send(payload []byte) error
	Receive() ([]byte, error)
}

// ErrDisconnected is returned by both directions of a link after its
// scheduled hard disconnect. A fresh Wrap (a "redial") restores service.
var ErrDisconnected = errors.New("fault: link disconnected")

// Config is one link's fault schedule. The zero value injects nothing.
type Config struct {
	// Seed drives every random decision; equal seeds replay the schedule.
	Seed int64
	// Drop is the probability an outgoing frame is silently lost.
	Drop float64
	// Dup is the probability an outgoing frame is delivered twice.
	Dup float64
	// Reorder is the probability an outgoing frame is held back and
	// released after the next frame (a pairwise swap).
	Reorder float64
	// Delay is the probability an outgoing frame is stalled by DelayFor
	// before delivery.
	Delay float64
	// DelayFor is the stall applied to delayed frames (default 1ms).
	DelayFor time.Duration
	// DisconnectAfter hard-disconnects the link after this many Send
	// calls (0 = never). Both directions return ErrDisconnected from then
	// on, modeling a severed connection the caller must re-dial.
	DisconnectAfter int
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.Drop > 0 || c.Dup > 0 || c.Reorder > 0 || c.Delay > 0 || c.DisconnectAfter > 0
}

// WithoutCut returns the config with the hard disconnect removed — the
// shape redial paths use so a re-established link keeps its frame-level
// faults but is not severed again.
func (c Config) WithoutCut() Config {
	c.DisconnectAfter = 0
	return c
}

// ParseSpec parses the -chaos knob: comma-separated key=value pairs, e.g.
//
//	"seed=7,drop=0.05,dup=0.02,reorder=0.01,delay=0.1,delayfor=2ms,cut=40"
//
// Keys: seed (int), drop/dup/reorder/delay (probabilities in [0,1]),
// delayfor (duration), cut (disconnect after N sends). Unknown keys are
// errors so typos fail loudly.
func ParseSpec(spec string) (Config, error) {
	var c Config
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return c, nil
	}
	for _, field := range strings.Split(spec, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return Config{}, fmt.Errorf("fault: spec field %q is not key=value", field)
		}
		var err error
		switch k {
		case "seed":
			c.Seed, err = strconv.ParseInt(v, 10, 64)
		case "drop":
			c.Drop, err = parseProb(k, v)
		case "dup":
			c.Dup, err = parseProb(k, v)
		case "reorder":
			c.Reorder, err = parseProb(k, v)
		case "delay":
			c.Delay, err = parseProb(k, v)
		case "delayfor":
			c.DelayFor, err = time.ParseDuration(v)
		case "cut":
			c.DisconnectAfter, err = strconv.Atoi(v)
		default:
			return Config{}, fmt.Errorf("fault: unknown spec key %q", k)
		}
		if err != nil {
			return Config{}, fmt.Errorf("fault: spec key %q: %w", k, err)
		}
	}
	return c, nil
}

func parseProb(key, v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	if p < 0 || p > 1 {
		return 0, fmt.Errorf("probability %g out of [0,1]", p)
	}
	return p, nil
}

// String renders the config in ParseSpec syntax.
func (c Config) String() string {
	var parts []string
	add := func(k, v string) { parts = append(parts, k+"="+v) }
	if c.Seed != 0 {
		add("seed", strconv.FormatInt(c.Seed, 10))
	}
	if c.Drop > 0 {
		add("drop", strconv.FormatFloat(c.Drop, 'g', -1, 64))
	}
	if c.Dup > 0 {
		add("dup", strconv.FormatFloat(c.Dup, 'g', -1, 64))
	}
	if c.Reorder > 0 {
		add("reorder", strconv.FormatFloat(c.Reorder, 'g', -1, 64))
	}
	if c.Delay > 0 {
		add("delay", strconv.FormatFloat(c.Delay, 'g', -1, 64))
	}
	if c.DelayFor > 0 {
		add("delayfor", c.DelayFor.String())
	}
	if c.DisconnectAfter > 0 {
		add("cut", strconv.Itoa(c.DisconnectAfter))
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// Stats counts the faults a link actually injected.
type Stats struct {
	Sends    int64
	Drops    int64
	Dups     int64
	Reorders int64
	Delays   int64
	Cut      bool
}

// String summarizes the injected faults.
func (s Stats) String() string {
	out := fmt.Sprintf("fault: %d sends, %d dropped, %d duplicated, %d reordered, %d delayed",
		s.Sends, s.Drops, s.Dups, s.Reorders, s.Delays)
	if s.Cut {
		out += ", link cut"
	}
	return out
}

// Link is a Transport wrapped with a fault schedule.
type Link struct {
	inner Transport
	cfg   Config
	clock clock.Clock // what a delayed frame stalls on; tests substitute a fake

	mu    sync.Mutex
	rng   *rand.Rand
	held  []byte // frame held back for a pairwise reorder
	down  bool
	stats Stats
}

// Wrap applies a fault schedule to a transport. The wrapper serializes
// Send decisions, so a fixed frame sequence replays a fixed schedule.
func Wrap(inner Transport, cfg Config) *Link {
	if cfg.Delay > 0 && cfg.DelayFor <= 0 {
		cfg.DelayFor = time.Millisecond
	}
	return &Link{inner: inner, cfg: cfg, clock: clock.Wall{}, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Stats snapshots the injected-fault counters.
func (l *Link) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Send applies the schedule to one outgoing frame. A dropped frame
// reports success (the loss is silent, as on a real network); a severed
// link reports ErrDisconnected.
func (l *Link) Send(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return ErrDisconnected
	}
	l.stats.Sends++
	if l.cfg.DisconnectAfter > 0 && l.stats.Sends > int64(l.cfg.DisconnectAfter) {
		l.down = true
		l.stats.Cut = true
		return ErrDisconnected
	}
	// Draw each fault in a fixed order so the schedule depends only on
	// the seed and the frame index, never on timing.
	drop := l.rng.Float64() < l.cfg.Drop
	delay := l.rng.Float64() < l.cfg.Delay
	dup := l.rng.Float64() < l.cfg.Dup
	reorder := l.rng.Float64() < l.cfg.Reorder

	if drop {
		l.stats.Drops++
		return nil
	}
	if delay {
		l.stats.Delays++
		// Sleeping under the lock serializes the link like a stalled
		// socket would: later frames queue behind the stalled one.
		clock.Sleep(l.clock, l.cfg.DelayFor, nil)
	}
	if reorder && l.held == nil {
		// Hold this frame; it is released right after the next one. If no
		// frame ever follows, the sender's retry layer re-sends it.
		l.stats.Reorders++
		l.held = payload
		return nil
	}
	if err := l.deliver(payload, dup); err != nil {
		return err
	}
	if l.held != nil {
		held := l.held
		l.held = nil
		return l.deliver(held, false)
	}
	return nil
}

// deliver forwards a frame, optionally duplicated. The duplicate is a
// deep copy: downstream links own (and may recycle) the buffers handed to
// them, so the two deliveries must not share backing memory.
func (l *Link) deliver(payload []byte, dup bool) error {
	// The copy must happen before the first Send: ownership of a sent
	// buffer transfers to the receiver, which may recycle it immediately.
	var second []byte
	if dup {
		second = append([]byte(nil), payload...)
	}
	if err := l.inner.Send(payload); err != nil {
		return err
	}
	if dup {
		l.stats.Dups++
		return l.inner.Send(second)
	}
	return nil
}

// Close closes the wrapped transport when it is an io.Closer, so a
// shutdown above the fault layer reaches the endpoint underneath it.
func (l *Link) Close() error {
	if c, ok := l.inner.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// Receive passes frames through, failing once the link is severed. A
// frame that arrives after the disconnect is discarded, like bytes
// buffered in a socket that was torn down.
func (l *Link) Receive() ([]byte, error) {
	l.mu.Lock()
	down := l.down
	l.mu.Unlock()
	if down {
		return nil, ErrDisconnected
	}
	payload, err := l.inner.Receive()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	down = l.down
	l.mu.Unlock()
	if down {
		return nil, ErrDisconnected
	}
	return payload, nil
}
