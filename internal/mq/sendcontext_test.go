package mq

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"vf2boost/internal/clock"
)

// TestTransmitContextAbortsOnDeadline: a sender waiting for its slot on
// the serialized WAN link unblocks when its context expires, but the link
// reservation is kept — later traffic queues behind it all the same.
func TestTransmitContextAbortsOnDeadline(t *testing.T) {
	// 1 Mbps = 125000 B/s: 25000 bytes occupy the link for 200ms.
	clk := clock.NewFake()
	s := newShaperClock(1, 0, clk)
	t0 := clk.Now()

	// An already-expired context is refused before touching the link.
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.TransmitContext(expired, 25000); !errors.Is(err, context.Canceled) {
		t.Fatalf("TransmitContext(expired) = %v, want context.Canceled", err)
	}
	if s.Bytes() != 0 {
		t.Fatalf("expired send accounted %d bytes, want 0", s.Bytes())
	}

	// The first message takes the idle link at once; the second has to
	// wait 200ms for its slot and gives up when its context ends, with
	// the clock still at t0.
	if _, err := s.TransmitContext(context.Background(), 25000); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := s.TransmitContext(ctx, 25000)
		errc <- err
	}()
	clk.BlockUntil(1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("TransmitContext = %v, want context.Canceled", err)
	}
	if !clk.Now().Equal(t0) {
		t.Fatalf("aborted sender waited %v for its slot, want 0", clk.Now().Sub(t0))
	}

	// The reservation survives the abort: the next message is delivered
	// behind both 200ms slots, not behind the first alone.
	var at time.Time
	clk.Drive(func() { at = s.Transmit(1250) })
	if got, want := at.Sub(t0), 410*time.Millisecond; got != want {
		t.Fatalf("send behind the kept reservation delivered after %v, want %v", got, want)
	}
}

// TestProducerSendContext: a send aborted while it waits for its slot
// never reaches the topic, and an unbounded send on the same producer
// still goes through.
func TestProducerSendContext(t *testing.T) {
	// 80ms per 10000-byte message.
	clk := clock.NewFake()
	b := NewBroker(WithShaper(newShaperClock(1, 0, clk)))
	defer b.Close()
	prod, err := b.Producer("x", "")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := b.Consumer("x", "")
	if err != nil {
		t.Fatal(err)
	}

	payload := make([]byte, 10000)
	if err := prod.Send(payload); err != nil { // occupies the link
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- prod.SendContext(ctx, payload) }()
	clk.BlockUntil(1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("congested SendContext = %v, want context.Canceled", err)
	}
	if depth := b.TopicDepth("x"); depth != 1 {
		t.Fatalf("aborted send enqueued: topic depth %d, want 1 (the message in flight)", depth)
	}

	var first, after []byte
	clk.Drive(func() {
		if err := prod.SendContext(context.Background(), []byte("after")); err != nil {
			t.Errorf("unbounded SendContext: %v", err)
		}
		first, _ = cons.Receive()
		after, err = cons.ReceiveTimeout(5 * time.Second)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(payload) || !bytes.Equal(after, []byte("after")) {
		t.Fatalf("received %d bytes then %q, want %d bytes then %q", len(first), after, len(payload), "after")
	}
}

// TestProducerSendContextNoShaper: without a shaper SendContext is just a
// guarded Send — live contexts pass, dead ones refuse before enqueueing.
func TestProducerSendContextNoShaper(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	prod, err := b.Producer("y", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := prod.SendContext(context.Background(), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := prod.SendContext(cancelled, []byte("dead")); !errors.Is(err, context.Canceled) {
		t.Fatalf("SendContext(cancelled) = %v, want context.Canceled", err)
	}
	if depth := b.TopicDepth("y"); depth != 1 {
		t.Fatalf("topic depth %d, want 1 (only the live send)", depth)
	}
}
