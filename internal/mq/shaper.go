package mq

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/clock"
)

// Shaper models the constrained public network between data centers as a
// single serialized pipe. Two costs are kept apart:
//
//   - occupancy: a message holds the link for size/bandwidth seconds, and
//     concurrent senders queue behind each other — exactly the congestion
//     behaviour that motivates the blaster-style encryption scheme
//     (Section 4.1 "the message queue would be congested due to the bulk
//     of transmission");
//   - propagation: the last byte reaches the far end a fixed latency after
//     it left, during which the link is already free for the next message.
//
// Occupancy is charged to the sender, propagation to the message: Transmit
// blocks only until the message's slot on the link starts — back-pressure
// of one message, what a socket buffer of that size would exert; a lone
// message on an idle link never sleeps at the sender — and returns the
// instant the message may be delivered, slot end plus latency, which the
// broker's consumers honour. A single stream therefore moves at the
// configured bandwidth, one latency behind, as it does over TCP.
//
// A zero bandwidth means an unconstrained link (only latency applies);
// both zero disables shaping entirely.
type Shaper struct {
	bandwidth float64 // bytes per second
	latency   time.Duration
	clock     clock.Clock

	mu       sync.Mutex
	nextFree time.Time

	overhead atomic.Int64 // per-message framing bytes added to every Transmit

	bytes atomic.Int64
	waits atomic.Int64 // cumulative nanoseconds senders spent blocked
}

// NewShaper builds a shaper; bandwidthMbps <= 0 means unlimited.
func NewShaper(bandwidthMbps float64, latency time.Duration) *Shaper {
	return newShaperClock(bandwidthMbps, latency, clock.Wall{})
}

// newShaperClock is NewShaper on an injected clock.
func newShaperClock(bandwidthMbps float64, latency time.Duration, c clock.Clock) *Shaper {
	bps := 0.0
	if bandwidthMbps > 0 {
		bps = bandwidthMbps * 1e6 / 8
	}
	return &Shaper{bandwidth: bps, latency: latency, clock: c}
}

// SetPerMessageOverhead makes every Transmit account (and occupy the link
// for) n extra bytes of framing — the gateway's frame header, so WAN
// simulation reflects true wire size rather than bare payload size. Zero
// (the default) keeps payload-only accounting. Set before traffic flows.
func (s *Shaper) SetPerMessageOverhead(n int) { s.overhead.Store(int64(n)) }

// Transmit reserves the link for n bytes (plus the configured per-message
// framing overhead), accounts them, blocks the caller until that slot
// starts, and returns the instant the message is deliverable at the far
// end. The zero time means deliverable at once (no shaping).
func (s *Shaper) Transmit(n int) time.Time {
	at, _ := s.TransmitContext(context.Background(), n)
	return at
}

// TransmitContext is Transmit with a deadline: an already-expired context
// returns its error without reserving the link, and a context that
// expires while the sender waits for its slot unblocks it with the
// context's error. The link reservation is kept either way — later
// traffic has already queued behind it — so shaping stays consistent.
func (s *Shaper) TransmitContext(ctx context.Context, n int) (deliverAt time.Time, err error) {
	if err := ctx.Err(); err != nil {
		return time.Time{}, err
	}
	n += int(s.overhead.Load())
	s.bytes.Add(int64(n))
	if s.bandwidth <= 0 && s.latency <= 0 {
		return time.Time{}, nil
	}
	now := s.clock.Now()
	start, end := now, now
	if s.bandwidth > 0 {
		tx := time.Duration(float64(n) / s.bandwidth * float64(time.Second))
		s.mu.Lock()
		if s.nextFree.After(now) {
			start = s.nextFree
		}
		end = start.Add(tx)
		s.nextFree = end
		s.mu.Unlock()
	}
	if wait := start.Sub(now); wait > 0 {
		s.waits.Add(int64(wait))
		slot, stop := clock.After(s.clock, wait)
		select {
		case <-slot:
		case <-ctx.Done():
			stop()
			return time.Time{}, ctx.Err()
		}
	}
	return end.Add(s.latency), nil
}

// Bytes returns the total bytes transmitted through the shaper.
func (s *Shaper) Bytes() int64 { return s.bytes.Load() }

// BlockedTime returns the cumulative time senders spent waiting for their
// slot on the link — queueing behind earlier messages. Propagation delay
// is not sender time and is not counted.
func (s *Shaper) BlockedTime() time.Duration { return time.Duration(s.waits.Load()) }

// Reset zeroes the byte and wait counters (the link state is kept).
func (s *Shaper) Reset() {
	s.bytes.Store(0)
	s.waits.Store(0)
}
