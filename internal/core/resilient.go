package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/clock"
	"vf2boost/internal/wire"
)

// The resilient link layer: an ARQ wrapper that turns an unreliable
// Transport (frames may be lost, delayed, duplicated, reordered, or the
// connection severed) back into the reliable in-order byte pipe the
// protocol engines assume. Each outgoing frame is wrapped in MsgEnvelope
// with a link-scoped sequence number; the receiver delivers strictly in
// sequence (holding early frames, dropping duplicates) and answers with
// cumulative MsgAck frames. Unacknowledged envelopes are retransmitted
// with exponential backoff and seeded jitter. When a link goes idle the
// sender emits MsgHeartbeat keepalives, so each side detects a dead peer
// (ErrPeerDead) instead of blocking forever; a heartbeat also piggybacks
// the receiver's cumulative ack, which re-synchronizes the sender after
// lost acks. An optional dial function re-establishes a severed
// connection and replays every unacked envelope — the receiver's
// duplicate suppression makes the replay idempotent.
//
// Control frames are always encoded with the binary codec regardless of
// the session codec: the wrapper peeks the frame tag and message ID to
// route them without a full decode.

// MsgEnvelope wraps one link frame with a reliable-delivery sequence
// number (link-scoped, starting at 1).
type MsgEnvelope struct {
	Seq   uint64
	Frame []byte
}

// MsgAck acknowledges in-order delivery of every envelope up to Cum.
type MsgAck struct {
	Cum uint64
}

// MsgHeartbeat is an idle-link keepalive; Cum piggybacks the sender's
// receive-side cumulative ack.
type MsgHeartbeat struct {
	Cum uint64
}

// ErrPeerDead is returned once a resilient link has heard nothing from
// its peer (data or heartbeat) for the configured PeerTimeout.
var ErrPeerDead = errors.New("core: peer unresponsive past the heartbeat timeout")

// errLinkClosed is returned by operations on a Close()d resilient link.
var errLinkClosed = errors.New("core: resilient link closed")

// ResilientConfig tunes the reliability wrapper. The zero value is
// usable: every field <= 0 falls back to its default.
type ResilientConfig struct {
	// RetryInterval is the initial retransmit wait for an unacked frame.
	RetryInterval time.Duration // default 200ms
	// RetryBackoff multiplies the wait after each retransmission.
	RetryBackoff float64 // default 2
	// RetryMax caps the per-frame retransmit wait.
	RetryMax time.Duration // default 5s
	// RetryJitter spreads each wait by ±this fraction (seeded by Seed),
	// decorrelating retry storms on a congested link.
	RetryJitter float64 // default 0.2
	// MaxRetries fails the link after this many retransmissions of one
	// frame; <= 0 retries until SendTimeout or PeerTimeout trips.
	MaxRetries int
	// SendTimeout fails the link when a frame stays unacked this long
	// (the send deadline); <= 0 disables.
	SendTimeout time.Duration
	// Heartbeat is the idle interval after which a keepalive is sent.
	Heartbeat time.Duration // default 1s
	// PeerTimeout declares the peer dead after this long without any
	// inbound frame (the receive deadline); <= 0 disables.
	PeerTimeout time.Duration // default 30s
	// RedialWait and RedialMax bound the backoff between reconnect
	// attempts; MaxRedials caps consecutive failed attempts (<= 0: 20).
	RedialWait time.Duration // default 250ms
	RedialMax  time.Duration // default 5s
	MaxRedials int
	// Seed drives the retry jitter; jitter is the only randomness here.
	Seed int64

	// clock is the time source of every deadline above; tests put it on
	// virtual time, everything else leaves it nil for the wall clock.
	clock clock.Clock
}

// DefaultResilientConfig returns the WAN-shaped defaults.
func DefaultResilientConfig() ResilientConfig {
	return ResilientConfig{
		RetryInterval: 200 * time.Millisecond,
		RetryBackoff:  2,
		RetryMax:      5 * time.Second,
		RetryJitter:   0.2,
		Heartbeat:     time.Second,
		PeerTimeout:   30 * time.Second,
		RedialWait:    250 * time.Millisecond,
		RedialMax:     5 * time.Second,
		MaxRedials:    20,
	}
}

func (c *ResilientConfig) normalize() {
	d := DefaultResilientConfig()
	if c.clock == nil {
		c.clock = clock.Wall{}
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = d.RetryInterval
	}
	if c.RetryBackoff < 1 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.RetryMax <= 0 {
		c.RetryMax = d.RetryMax
	}
	if c.RetryJitter < 0 || c.RetryJitter >= 1 {
		c.RetryJitter = d.RetryJitter
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = d.Heartbeat
	}
	if c.PeerTimeout < 0 {
		c.PeerTimeout = 0
	} else if c.PeerTimeout == 0 {
		c.PeerTimeout = d.PeerTimeout
	}
	if c.RedialWait <= 0 {
		c.RedialWait = d.RedialWait
	}
	if c.RedialMax <= 0 {
		c.RedialMax = d.RedialMax
	}
	if c.MaxRedials <= 0 {
		c.MaxRedials = d.MaxRedials
	}
}

// ResilientStats counts the recovery work a link performed.
type ResilientStats struct {
	Retransmits int64
	Redials     int64
	Heartbeats  int64
	DupFrames   int64 // inbound duplicates suppressed
	HeldFrames  int64 // inbound frames held for reordering
}

// String summarizes the recovery counters.
func (s ResilientStats) String() string {
	return fmt.Sprintf("link: %d retransmits, %d redials, %d heartbeats, %d dups dropped, %d frames reordered",
		s.Retransmits, s.Redials, s.Heartbeats, s.DupFrames, s.HeldFrames)
}

// pendingFrame is one sent-but-unacked envelope.
type pendingFrame struct {
	seq      uint64
	frame    []byte
	born     time.Time
	nextAt   time.Time
	interval time.Duration
	attempts int
}

// ResilientTransport implements Transport over an unreliable inner
// transport. Both peers of a link must be wrapped: the wrapper speaks
// envelope/ack/heartbeat frames on the wire.
type ResilientTransport struct {
	cfg  ResilientConfig
	dial func() (Transport, error) // nil: connection loss is fatal

	mu       sync.Mutex
	inner    Transport
	gen      int // connection generation, bumped per redial
	sendSeq  uint64
	pending  []*pendingFrame // ascending seq
	lastSend time.Time
	nextRecv uint64            // next in-order sequence expected
	held     map[uint64][]byte // early frames awaiting their gap
	rng      *rand.Rand
	fatalErr error

	deliver chan []byte
	dead    chan struct{} // closed on fatal error
	done    chan struct{} // closed by Close
	closing sync.Once
	failing sync.Once

	heardAt atomic.Int64 // UnixNano of the last inbound frame

	retransmits atomic.Int64
	redials     atomic.Int64
	heartbeats  atomic.Int64
	dupFrames   atomic.Int64
	heldFrames  atomic.Int64
}

// NewResilientTransport wraps inner with the reliability layer. dial, when
// non-nil, re-establishes a severed connection (inner may then be nil:
// the first connection is dialed immediately). The wrapper owns the inner
// transport and closes it (if it has a Close method) on Close.
func NewResilientTransport(inner Transport, dial func() (Transport, error), cfg ResilientConfig) (*ResilientTransport, error) {
	cfg.normalize()
	if inner == nil {
		if dial == nil {
			return nil, fmt.Errorf("core: resilient transport needs an inner transport or a dial function")
		}
		tr, err := dial()
		if err != nil {
			return nil, fmt.Errorf("core: resilient transport initial dial: %w", err)
		}
		inner = tr
	}
	r := &ResilientTransport{
		cfg:      cfg,
		dial:     dial,
		inner:    inner,
		nextRecv: 1,
		held:     make(map[uint64][]byte),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		deliver:  make(chan []byte, 1024),
		dead:     make(chan struct{}),
		done:     make(chan struct{}),
		lastSend: cfg.clock.Now(),
	}
	r.heardAt.Store(r.lastSend.UnixNano())
	go r.recvLoop()
	go r.timerLoop()
	return r, nil
}

// Stats snapshots the recovery counters.
func (r *ResilientTransport) Stats() ResilientStats {
	return ResilientStats{
		Retransmits: r.retransmits.Load(),
		Redials:     r.redials.Load(),
		Heartbeats:  r.heartbeats.Load(),
		DupFrames:   r.dupFrames.Load(),
		HeldFrames:  r.heldFrames.Load(),
	}
}

// Close stops the background loops and closes the inner transport. Safe
// to call more than once.
func (r *ResilientTransport) Close() error {
	r.closing.Do(func() {
		close(r.done)
		r.mu.Lock()
		inner := r.inner
		r.mu.Unlock()
		if c, ok := inner.(io.Closer); ok {
			c.Close()
		}
	})
	return nil
}

// fail latches the first fatal error and wakes every waiter.
func (r *ResilientTransport) fail(err error) {
	r.failing.Do(func() {
		r.mu.Lock()
		r.fatalErr = err
		r.mu.Unlock()
		close(r.dead)
	})
}

func (r *ResilientTransport) fatal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.fatalErr != nil {
		return r.fatalErr
	}
	return errLinkClosed
}

func (r *ResilientTransport) isShutdown() bool {
	select {
	case <-r.done:
		return true
	case <-r.dead:
		return true
	default:
		return false
	}
}

// Send enqueues one frame for reliable in-order delivery. It never blocks
// on the network: the frame is retained until the peer acknowledges it,
// and retransmitted on the backoff schedule meanwhile.
func (r *ResilientTransport) Send(payload []byte) error {
	r.mu.Lock()
	if r.fatalErr != nil {
		err := r.fatalErr
		r.mu.Unlock()
		return err
	}
	select {
	case <-r.done:
		r.mu.Unlock()
		return errLinkClosed
	default:
	}
	r.sendSeq++
	now := r.cfg.clock.Now()
	pf := &pendingFrame{
		seq:      r.sendSeq,
		frame:    payload,
		born:     now,
		interval: r.cfg.RetryInterval,
	}
	pf.nextAt = now.Add(r.jittered(pf.interval))
	r.pending = append(r.pending, pf)
	r.lastSend = now
	inner := r.inner
	r.mu.Unlock()
	r.transmit(inner, pf.seq, payload)
	return nil
}

// jittered spreads an interval by ±RetryJitter. Callers hold r.mu.
func (r *ResilientTransport) jittered(d time.Duration) time.Duration {
	if r.cfg.RetryJitter <= 0 {
		return d
	}
	f := 1 + r.cfg.RetryJitter*(2*r.rng.Float64()-1)
	return time.Duration(float64(d) * f)
}

// transmit ships one envelope; errors are swallowed (the retransmit loop
// or the receive loop's redial recovers).
func (r *ResilientTransport) transmit(inner Transport, seq uint64, frame []byte) {
	buf, err := wire.Binary.Encode(MsgEnvelope{Seq: seq, Frame: frame})
	if err != nil {
		r.fail(fmt.Errorf("core: encoding envelope: %w", err))
		return
	}
	if err := inner.Send(buf); err != nil {
		wire.PutBuf(buf)
	}
}

// sendControl ships an ack or heartbeat; best-effort like transmit.
func (r *ResilientTransport) sendControl(inner Transport, m any) {
	buf, err := wire.Binary.Encode(m)
	if err != nil {
		return
	}
	if err := inner.Send(buf); err != nil {
		wire.PutBuf(buf)
	}
}

// Receive blocks for the next in-order frame. Frames already delivered
// in order are drained before a fatal error is reported.
func (r *ResilientTransport) Receive() ([]byte, error) {
	select {
	case f := <-r.deliver:
		return f, nil
	default:
	}
	select {
	case f := <-r.deliver:
		return f, nil
	case <-r.dead:
		select {
		case f := <-r.deliver:
			return f, nil
		default:
			return nil, r.fatal()
		}
	case <-r.done:
		return nil, errLinkClosed
	}
}

// recvLoop pulls frames off the inner transport, demultiplexes control
// frames, and redials on connection loss.
func (r *ResilientTransport) recvLoop() {
	for {
		r.mu.Lock()
		inner, gen := r.inner, r.gen
		r.mu.Unlock()
		payload, err := inner.Receive()
		if r.isShutdown() {
			return
		}
		if err != nil {
			if !r.reconnect(gen, err) {
				return
			}
			continue
		}
		r.handleFrame(payload)
	}
}

// reconnect re-establishes the connection after a receive error and
// replays every unacked envelope. It reports whether the loop should
// continue.
func (r *ResilientTransport) reconnect(gen int, cause error) bool {
	if r.dial == nil {
		r.fail(fmt.Errorf("core: resilient link receive: %w", cause))
		return false
	}
	wait := r.cfg.RedialWait
	for attempt := 0; attempt < r.cfg.MaxRedials; attempt++ {
		if attempt > 0 {
			if !r.sleep(wait) {
				return false
			}
			wait *= 2
			if wait > r.cfg.RedialMax {
				wait = r.cfg.RedialMax
			}
		}
		tr, err := r.dial()
		if err != nil {
			continue
		}
		r.mu.Lock()
		if c, ok := r.inner.(io.Closer); ok {
			c.Close()
		}
		r.inner = tr
		r.gen = gen + 1
		pend := make([]*pendingFrame, len(r.pending))
		copy(pend, r.pending)
		r.mu.Unlock()
		r.redials.Add(1)
		// A fresh connection means the peer may have missed anything not
		// yet acked: replay the whole unacked window in order. Frames the
		// peer did receive are suppressed as duplicates on its side.
		for _, pf := range pend {
			r.transmit(tr, pf.seq, pf.frame)
		}
		// Give the peer a fresh chance to detect us before its timeout.
		r.heardAt.Store(r.cfg.clock.Now().UnixNano())
		return true
	}
	r.fail(fmt.Errorf("core: resilient link: redial failed %d times: %w", r.cfg.MaxRedials, cause))
	return false
}

// handleFrame routes one inbound frame: envelope, ack, heartbeat, or (for
// mixed deployments) a bare frame passed through untouched.
func (r *ResilientTransport) handleFrame(payload []byte) {
	r.heardAt.Store(r.cfg.clock.Now().UnixNano())
	if len(payload) >= 3 && payload[0] == wire.TagBinaryV1 {
		switch binary.BigEndian.Uint16(payload[1:3]) {
		case idEnvelope:
			m, err := wire.Binary.Decode(payload)
			if err != nil {
				r.fail(fmt.Errorf("core: resilient link: %w", err))
				return
			}
			wire.PutBuf(payload)
			env := m.(MsgEnvelope)
			r.onData(env.Seq, env.Frame)
			return
		case idAck:
			m, err := wire.Binary.Decode(payload)
			if err != nil {
				r.fail(fmt.Errorf("core: resilient link: %w", err))
				return
			}
			wire.PutBuf(payload)
			r.onAck(m.(MsgAck).Cum)
			return
		case idHeartbeat:
			m, err := wire.Binary.Decode(payload)
			if err != nil {
				r.fail(fmt.Errorf("core: resilient link: %w", err))
				return
			}
			wire.PutBuf(payload)
			r.onAck(m.(MsgHeartbeat).Cum)
			return
		}
	}
	// Not a control frame: the peer is not (yet) wrapped. Deliver as-is.
	select {
	case r.deliver <- payload:
	case <-r.done:
	case <-r.dead:
	}
}

// onData applies sequencing to one enveloped frame: duplicates are
// dropped (and re-acked, in case the original ack was lost), early frames
// held, and every newly contiguous frame delivered in order.
func (r *ResilientTransport) onData(seq uint64, frame []byte) {
	r.mu.Lock()
	if seq < r.nextRecv {
		cum := r.nextRecv - 1
		inner := r.inner
		r.mu.Unlock()
		r.dupFrames.Add(1)
		r.sendControl(inner, MsgAck{Cum: cum})
		return
	}
	if _, dup := r.held[seq]; dup {
		r.mu.Unlock()
		r.dupFrames.Add(1)
		return
	}
	if seq > r.nextRecv {
		r.heldFrames.Add(1)
	}
	r.held[seq] = frame
	var ready [][]byte
	for {
		f, ok := r.held[r.nextRecv]
		if !ok {
			break
		}
		delete(r.held, r.nextRecv)
		ready = append(ready, f)
		r.nextRecv++
	}
	cum := r.nextRecv - 1
	inner := r.inner
	r.mu.Unlock()
	for _, f := range ready {
		select {
		case r.deliver <- f:
		case <-r.done:
			return
		case <-r.dead:
			return
		}
	}
	if len(ready) > 0 {
		r.sendControl(inner, MsgAck{Cum: cum})
	}
}

// onAck discards every pending frame the cumulative ack covers. The
// buffers are released to the GC, not the pool: a retransmission may be
// in flight concurrently, so the pool must never hand them out again.
func (r *ResilientTransport) onAck(cum uint64) {
	r.mu.Lock()
	i := 0
	for i < len(r.pending) && r.pending[i].seq <= cum {
		i++
	}
	if i > 0 {
		r.pending = append(r.pending[:0:0], r.pending[i:]...)
	}
	r.mu.Unlock()
}

// sleep waits d on the link's clock; it reports false if the link was
// closed or failed first.
func (r *ResilientTransport) sleep(d time.Duration) bool {
	elapsed, stop := clock.After(r.cfg.clock, d)
	defer stop()
	select {
	case <-elapsed:
		return true
	case <-r.done:
	case <-r.dead:
	}
	return false
}

// timerLoop drives retransmissions, heartbeats, and the peer-death and
// send-deadline checks.
func (r *ResilientTransport) timerLoop() {
	tick := r.cfg.RetryInterval
	if r.cfg.Heartbeat < tick {
		tick = r.cfg.Heartbeat
	}
	tick /= 4
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	// The next tick is armed when the work of this one is done, so a
	// test stepping a fake clock knows a re-armed loop has finished.
	for {
		if !r.sleep(tick) {
			return
		}
		now := r.cfg.clock.Now()
		if r.cfg.PeerTimeout > 0 && now.Sub(time.Unix(0, r.heardAt.Load())) > r.cfg.PeerTimeout {
			r.fail(fmt.Errorf("%w (silent for over %v)", ErrPeerDead, r.cfg.PeerTimeout))
			return
		}

		type rtx struct {
			seq   uint64
			frame []byte
		}
		var resend []rtx
		var fatal error
		r.mu.Lock()
		inner := r.inner
		for _, pf := range r.pending {
			if r.cfg.SendTimeout > 0 && now.Sub(pf.born) > r.cfg.SendTimeout {
				fatal = fmt.Errorf("core: frame %d unacknowledged past the %v send deadline", pf.seq, r.cfg.SendTimeout)
				break
			}
			if now.Before(pf.nextAt) {
				continue
			}
			if r.cfg.MaxRetries > 0 && pf.attempts >= r.cfg.MaxRetries {
				fatal = fmt.Errorf("core: frame %d lost after %d retransmissions", pf.seq, pf.attempts)
				break
			}
			pf.attempts++
			pf.interval = time.Duration(float64(pf.interval) * r.cfg.RetryBackoff)
			if pf.interval > r.cfg.RetryMax {
				pf.interval = r.cfg.RetryMax
			}
			pf.nextAt = now.Add(r.jittered(pf.interval))
			resend = append(resend, rtx{pf.seq, pf.frame})
		}
		sendHB := fatal == nil && len(resend) == 0 && now.Sub(r.lastSend) >= r.cfg.Heartbeat
		if len(resend) > 0 || sendHB {
			r.lastSend = now
		}
		cum := r.nextRecv - 1
		r.mu.Unlock()
		if fatal != nil {
			r.fail(fatal)
			return
		}
		for _, t := range resend {
			r.retransmits.Add(1)
			r.transmit(inner, t.seq, t.frame)
		}
		if sendHB {
			r.heartbeats.Add(1)
			r.sendControl(inner, MsgHeartbeat{Cum: cum})
		}
	}
}
