package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"vf2boost/internal/clock"
	"vf2boost/internal/fault"
)

// chanEnd is one direction-pair endpoint of an in-memory duplex pipe.
type chanEnd struct {
	out    chan<- []byte
	in     <-chan []byte
	closed chan struct{}
	once   sync.Once
}

var errEndClosed = errors.New("test: endpoint closed")

func (e *chanEnd) Send(p []byte) error {
	select {
	case e.out <- p:
		return nil
	case <-e.closed:
		return errEndClosed
	}
}

func (e *chanEnd) Receive() ([]byte, error) {
	select {
	case p := <-e.in:
		return p, nil
	case <-e.closed:
		return nil, errEndClosed
	}
}

func (e *chanEnd) Close() { e.once.Do(func() { close(e.closed) }) }

// newPipe returns the two endpoints of a duplex in-memory link.
func newPipe() (*chanEnd, *chanEnd) {
	a2b := make(chan []byte, 1024)
	b2a := make(chan []byte, 1024)
	a := &chanEnd{out: a2b, in: b2a, closed: make(chan struct{})}
	b := &chanEnd{out: b2a, in: a2b, closed: make(chan struct{})}
	return a, b
}

// fastResilient returns a config tuned for test speed.
func fastResilient(seed int64) ResilientConfig {
	return ResilientConfig{
		RetryInterval: 5 * time.Millisecond,
		RetryBackoff:  1.5,
		RetryMax:      50 * time.Millisecond,
		Heartbeat:     10 * time.Millisecond,
		PeerTimeout:   5 * time.Second,
		Seed:          seed,
	}
}

// TestResilientLossyLinkExactlyOnce: a link dropping, duplicating, and
// reordering frames in both directions must still deliver every frame
// exactly once, in order.
func TestResilientLossyLinkExactlyOnce(t *testing.T) {
	a, b := newPipe()
	chaos := fault.Config{Seed: 11, Drop: 0.2, Dup: 0.1, Reorder: 0.2}
	aChaos := chaos
	bChaos := chaos
	bChaos.Seed = 12
	ra, err := NewResilientTransport(fault.Wrap(a, aChaos), nil, fastResilient(1))
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, err := NewResilientTransport(fault.Wrap(b, bChaos), nil, fastResilient(2))
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()

	const n = 150
	go func() {
		for i := 0; i < n; i++ {
			if err := ra.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := rb.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if want := fmt.Sprintf("frame-%03d", i); string(got) != want {
			t.Fatalf("frame %d = %q, want %q", i, got, want)
		}
	}
	st := ra.Stats()
	if st.Retransmits == 0 {
		t.Error("a lossy link recovered without a single retransmission")
	}
}

// TestResilientBidirectional: request/response traffic flows both ways
// through the same wrapped pair.
func TestResilientBidirectional(t *testing.T) {
	a, b := newPipe()
	ra, _ := NewResilientTransport(a, nil, fastResilient(3))
	defer ra.Close()
	rb, _ := NewResilientTransport(b, nil, fastResilient(4))
	defer rb.Close()
	for i := 0; i < 20; i++ {
		if err := ra.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		got, err := rb.Receive()
		if err != nil || got[0] != byte(i) {
			t.Fatalf("b got %v, %v", got, err)
		}
		if err := rb.Send([]byte{byte(i + 100)}); err != nil {
			t.Fatal(err)
		}
		got, err = ra.Receive()
		if err != nil || got[0] != byte(i+100) {
			t.Fatalf("a got %v, %v", got, err)
		}
	}
}

// TestResilientPeerDeath: a peer that stops responding trips the receive
// deadline with ErrPeerDead rather than blocking forever.
func TestResilientPeerDeath(t *testing.T) {
	a, b := newPipe()
	cfg := fastResilient(5)
	cfg.PeerTimeout = 50 * time.Millisecond
	ra, _ := NewResilientTransport(a, nil, cfg)
	defer ra.Close()
	// The peer side exists but never sends anything (not even heartbeats:
	// it is not wrapped).
	_ = b
	start := time.Now()
	_, err := ra.Receive()
	if !errors.Is(err, ErrPeerDead) {
		t.Fatalf("Receive = %v, want ErrPeerDead", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("peer death took %v to detect", time.Since(start))
	}
	// The link stays failed for senders too.
	if err := ra.Send([]byte("x")); !errors.Is(err, ErrPeerDead) {
		t.Errorf("Send after peer death = %v, want ErrPeerDead", err)
	}
}

// TestResilientHeartbeatsKeepIdleLinkAlive: two wrapped idle peers
// exchange heartbeats and outlive many PeerTimeout windows. The windows
// pass on a fake clock, one timer tick at a time, so a stalled host
// cannot make a live peer look dead.
func TestResilientHeartbeatsKeepIdleLinkAlive(t *testing.T) {
	a, b := newPipe()
	clk := clock.NewFake()
	cfg := fastResilient(6)
	cfg.Heartbeat = 5 * time.Millisecond
	cfg.PeerTimeout = 40 * time.Millisecond
	cfg.clock = clk
	ra, _ := NewResilientTransport(a, nil, cfg)
	defer ra.Close()
	rb, _ := NewResilientTransport(b, nil, cfg)
	defer rb.Close()
	// timerLoop's period for this config; 200ms is five timeout windows.
	const tick = 5 * time.Millisecond / 4
	for idle := time.Duration(0); idle < 200*time.Millisecond; idle += tick {
		// Both timer loops are waiting for their next tick; a loop re-arms
		// once its tick's work — possibly a heartbeat — is done. Then let
		// the peers take those heartbeats off the pipe.
		clk.BlockUntil(2)
		clk.Advance(tick)
		clk.BlockUntil(2)
		for len(a.out) > 0 || len(b.out) > 0 {
			runtime.Gosched()
		}
	}
	if err := ra.Send([]byte("still-there")); err != nil {
		t.Fatalf("send after idle period: %v", err)
	}
	got, err := rb.Receive()
	if err != nil || string(got) != "still-there" {
		t.Fatalf("receive after idle period: %q, %v", got, err)
	}
	if ra.Stats().Heartbeats == 0 {
		t.Error("idle link sent no heartbeats")
	}
}

// TestResilientRedialReplaysUnacked: after a hard disconnect the dial
// function re-establishes the link and every unacked frame is replayed.
func TestResilientRedialReplaysUnacked(t *testing.T) {
	a2b := make(chan []byte, 1024)
	b2a := make(chan []byte, 1024)
	newA := func() *chanEnd { return &chanEnd{out: a2b, in: b2a, closed: make(chan struct{})} }
	b := &chanEnd{out: b2a, in: a2b, closed: make(chan struct{})}

	// The first connection is severed after 5 frames; the redial gets a
	// clean endpoint on the same pipe.
	first := fault.Wrap(newA(), fault.Config{Seed: 1, DisconnectAfter: 5})
	var dials int
	dial := func() (Transport, error) {
		dials++
		return newA(), nil
	}
	cfg := fastResilient(7)
	cfg.RedialWait = time.Millisecond
	ra, err := NewResilientTransport(first, dial, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ra.Close()
	rb, _ := NewResilientTransport(b, nil, fastResilient(8))
	defer rb.Close()

	const n = 30
	go func() {
		for i := 0; i < n; i++ {
			ra.Send([]byte{byte(i)})
		}
	}()
	for i := 0; i < n; i++ {
		got, err := rb.Receive()
		if err != nil {
			t.Fatalf("receive %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("frame %d = %d", i, got[0])
		}
	}
	if dials == 0 {
		t.Error("link recovered without dialing")
	}
	if ra.Stats().Redials == 0 {
		t.Error("redial counter did not move")
	}
}

// TestResilientCloseUnblocksReceive: Close wakes a blocked Receive with a
// closed-link error instead of ErrPeerDead.
func TestResilientCloseUnblocksReceive(t *testing.T) {
	a, b := newPipe()
	ra, _ := NewResilientTransport(a, nil, fastResilient(9))
	rb, _ := NewResilientTransport(b, nil, fastResilient(10))
	defer rb.Close()
	done := make(chan error, 1)
	go func() {
		_, err := ra.Receive()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	ra.Close()
	select {
	case err := <-done:
		if err == nil || errors.Is(err, ErrPeerDead) {
			t.Errorf("Receive after Close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Close did not unblock Receive")
	}
}

// TestResilientSendDeadline: a frame no peer ever acknowledges trips the
// send deadline.
func TestResilientSendDeadline(t *testing.T) {
	a, _ := newPipe() // peer endpoint discarded: frames go nowhere
	cfg := fastResilient(11)
	cfg.SendTimeout = 30 * time.Millisecond
	cfg.PeerTimeout = -1 // isolate the send deadline from the receive one
	ra, _ := NewResilientTransport(a, nil, cfg)
	defer ra.Close()
	if err := ra.Send([]byte("doomed")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		select {
		case <-deadline:
			t.Fatal("send deadline never tripped")
		default:
		}
		if err := ra.Send([]byte("probe")); err != nil {
			return // the latched deadline error surfaced
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestResilientPassThrough: frames from an unwrapped peer (no envelope)
// are delivered untouched, so mixed deployments degrade gracefully.
func TestResilientPassThrough(t *testing.T) {
	a, b := newPipe()
	ra, _ := NewResilientTransport(a, nil, fastResilient(12))
	defer ra.Close()
	if err := b.Send([]byte("bare")); err != nil {
		t.Fatal(err)
	}
	got, err := ra.Receive()
	if err != nil || string(got) != "bare" {
		t.Fatalf("pass-through = %q, %v", got, err)
	}
}
