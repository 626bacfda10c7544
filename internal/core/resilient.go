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
// on the retry schedule of clock.Backoff, with seeded jitter. When a link
// goes idle the sender emits MsgHeartbeat keepalives, so each side
// detects a dead peer (ErrPeerDead) instead of blocking forever; a
// heartbeat also piggybacks the receiver's cumulative ack, which
// re-synchronizes the sender after lost acks. A frame has no send
// deadline of its own: if a link swallows one direction, the receiving
// side hears nothing, fails on its PeerTimeout and stops heartbeating, so
// the sending side's PeerTimeout fires too. An optional dial function
// re-establishes a severed connection (on the same schedule) and replays
// every unacked envelope — the receiver's duplicate suppression makes the
// replay idempotent.
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

// ResilientConfig tunes the reliability wrapper. Retransmits and redials
// follow the one retry schedule of clock.Backoff; a zero or negative
// duration here takes its default.
type ResilientConfig struct {
	// Heartbeat is the idle interval after which a keepalive is sent.
	Heartbeat time.Duration // default 1s
	// PeerTimeout declares the peer dead after this long without any
	// inbound frame (the receive deadline).
	PeerTimeout time.Duration // default 30s
	// Seed drives the retry jitter; jitter is the only randomness here.
	Seed int64

	// clock is the time source of every wait above; tests put it on
	// virtual time, everything else leaves it nil for the wall clock.
	clock clock.Clock
}

func (c *ResilientConfig) normalize() {
	if c.clock == nil {
		c.clock = clock.Wall{}
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = time.Second
	}
	if c.PeerTimeout <= 0 {
		c.PeerTimeout = 30 * time.Second
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
	seq    uint64
	frame  []byte
	nextAt time.Time     // when it is retransmitted unless acked first
	retry  clock.Backoff // its retransmit schedule
}

// ResilientTransport implements Transport over an unreliable inner
// transport. Both peers of a link must be wrapped: the wrapper speaks
// envelope/ack/heartbeat frames on the wire.
type ResilientTransport struct {
	cfg  ResilientConfig
	dial func() (Transport, error) // nil: connection loss is fatal

	mu       sync.Mutex
	inner    Transport
	sendSeq  uint64
	pending  []*pendingFrame // ascending seq
	lastSend time.Time
	nextRecv uint64            // next in-order sequence expected
	held     map[uint64][]byte // early frames awaiting their gap
	rng      *rand.Rand        // the pending frames' retransmit jitter
	fatalErr error             // set, before quit closes, by stop

	deliver  chan []byte
	quit     chan struct{} // closed by stop: on Close or the first fatal error
	stopping sync.Once
	closing  sync.Once

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
		quit:     make(chan struct{}),
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
	r.stop(errLinkClosed)
	r.closing.Do(func() {
		r.mu.Lock()
		inner := r.inner
		r.mu.Unlock()
		if c, ok := inner.(io.Closer); ok {
			c.Close()
		}
	})
	return nil
}

// stop latches the link's first terminal error — errLinkClosed from
// Close, or the fault that failed it — and wakes every waiter.
func (r *ResilientTransport) stop(err error) {
	r.stopping.Do(func() {
		r.mu.Lock()
		r.fatalErr = err
		r.mu.Unlock()
		close(r.quit)
	})
}

func (r *ResilientTransport) fatal() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fatalErr
}

func (r *ResilientTransport) isShutdown() bool {
	select {
	case <-r.quit:
		return true
	default:
		return false
	}
}

// Send enqueues one frame for reliable in-order delivery. It never blocks
// on the network: the frame is retained until the peer acknowledges it,
// and retransmitted on the retry schedule meanwhile.
func (r *ResilientTransport) Send(payload []byte) error {
	r.mu.Lock()
	if err := r.fatalErr; err != nil {
		r.mu.Unlock()
		return err
	}
	r.sendSeq++
	now := r.cfg.clock.Now()
	pf := &pendingFrame{
		seq:   r.sendSeq,
		frame: payload,
		retry: clock.NewBackoff(r.cfg.clock, r.rng),
	}
	pf.nextAt = now.Add(pf.retry.Next())
	r.pending = append(r.pending, pf)
	r.lastSend = now
	inner := r.inner
	r.mu.Unlock()
	r.transmit(inner, pf.seq, payload)
	return nil
}

// transmit ships one envelope; errors are swallowed (the retransmit loop
// or the receive loop's redial recovers).
func (r *ResilientTransport) transmit(inner Transport, seq uint64, frame []byte) {
	buf, err := wire.Binary.Encode(MsgEnvelope{Seq: seq, Frame: frame})
	if err != nil {
		r.stop(fmt.Errorf("core: encoding envelope: %w", err))
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
// in order are drained before the link's terminal error is reported.
func (r *ResilientTransport) Receive() ([]byte, error) {
	select {
	case f := <-r.deliver:
		return f, nil
	case <-r.quit:
		select {
		case f := <-r.deliver:
			return f, nil
		default:
			return nil, r.fatal()
		}
	}
}

// recvLoop pulls frames off the inner transport, demultiplexes control
// frames, and redials on connection loss.
func (r *ResilientTransport) recvLoop() {
	redial := clock.NewBackoff(r.cfg.clock, rand.New(rand.NewSource(r.cfg.Seed)))
	for {
		r.mu.Lock()
		inner := r.inner
		r.mu.Unlock()
		payload, err := inner.Receive()
		if r.isShutdown() {
			return
		}
		if err != nil {
			if !r.reconnect(&redial, err) {
				return
			}
			continue
		}
		r.handleFrame(payload)
	}
}

// reconnect re-establishes the connection after a receive error, dialing
// on the retry schedule, and replays every unacked envelope. It reports
// whether the loop should continue.
func (r *ResilientTransport) reconnect(retry *clock.Backoff, cause error) bool {
	if r.dial == nil {
		r.stop(fmt.Errorf("core: resilient link receive: %w", cause))
		return false
	}
	tr, err := r.dial()
	for ; err != nil; tr, err = r.dial() {
		if !retry.Fail(r.quit) {
			r.stop(fmt.Errorf("core: resilient link: redial failed %d times: %w", clock.MaxFails, cause))
			return false
		}
	}
	retry.Reset()
	r.mu.Lock()
	if c, ok := r.inner.(io.Closer); ok {
		c.Close()
	}
	r.inner = tr
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

// handleFrame routes one inbound frame: envelope, ack, heartbeat, or (for
// mixed deployments) a bare frame passed through untouched.
func (r *ResilientTransport) handleFrame(payload []byte) {
	r.heardAt.Store(r.cfg.clock.Now().UnixNano())
	if len(payload) >= 3 && payload[0] == wire.TagBinaryV1 {
		switch binary.BigEndian.Uint16(payload[1:3]) {
		case idEnvelope:
			m, err := wire.Binary.Decode(payload)
			if err != nil {
				r.stop(fmt.Errorf("core: resilient link: %w", err))
				return
			}
			wire.PutBuf(payload)
			env := m.(MsgEnvelope)
			r.onData(env.Seq, env.Frame)
			return
		case idAck:
			m, err := wire.Binary.Decode(payload)
			if err != nil {
				r.stop(fmt.Errorf("core: resilient link: %w", err))
				return
			}
			wire.PutBuf(payload)
			r.onAck(m.(MsgAck).Cum)
			return
		case idHeartbeat:
			m, err := wire.Binary.Decode(payload)
			if err != nil {
				r.stop(fmt.Errorf("core: resilient link: %w", err))
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
	case <-r.quit:
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
		case <-r.quit:
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

// timerLoop drives retransmissions, heartbeats, and the peer-death check.
func (r *ResilientTransport) timerLoop() {
	tick := max(min(clock.FirstWait, r.cfg.Heartbeat)/4, time.Millisecond)
	// The next tick is armed when the work of this one is done, so a
	// test stepping a fake clock knows a re-armed loop has finished.
	for clock.Sleep(r.cfg.clock, tick, r.quit) {
		now := r.cfg.clock.Now()
		if now.Sub(time.Unix(0, r.heardAt.Load())) > r.cfg.PeerTimeout {
			r.stop(fmt.Errorf("%w (silent for over %v)", ErrPeerDead, r.cfg.PeerTimeout))
			return
		}
		var resend []*pendingFrame
		r.mu.Lock()
		inner := r.inner
		for _, pf := range r.pending {
			if !now.Before(pf.nextAt) {
				pf.nextAt = now.Add(pf.retry.Next())
				resend = append(resend, pf)
			}
		}
		sendHB := len(resend) == 0 && now.Sub(r.lastSend) >= r.cfg.Heartbeat
		if len(resend) > 0 || sendHB {
			r.lastSend = now
		}
		cum := r.nextRecv - 1
		r.mu.Unlock()
		// seq and frame never change once a frame is pending.
		for _, pf := range resend {
			r.retransmits.Add(1)
			r.transmit(inner, pf.seq, pf.frame)
		}
		if sendHB {
			r.heartbeats.Add(1)
			r.sendControl(inner, MsgHeartbeat{Cum: cum})
		}
	}
}
