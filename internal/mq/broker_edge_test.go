package mq

import (
	"testing"
	"time"

	"vf2boost/internal/clock"
)

func TestConsumerCloseWakesReceive(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	c, err := b.Consumer("t", "")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Receive()
		done <- err
	}()
	time.Sleep(5 * time.Millisecond)
	c.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Receive after consumer Close = %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer Close did not wake Receive")
	}
	// Other consumers on the same topic stay usable.
	c2, _ := b.Consumer("t", "")
	p, _ := b.Producer("t", "")
	p.Send([]byte("x"))
	if got, err := c2.ReceiveTimeout(time.Second); err != nil || string(got) != "x" {
		t.Errorf("sibling consumer broken after Close: %q %v", got, err)
	}
}

func TestConsumerCloseDuringTimeout(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	c, _ := b.Consumer("t", "")
	go func() {
		time.Sleep(10 * time.Millisecond)
		c.Close()
	}()
	if _, err := c.ReceiveTimeout(5 * time.Second); err != ErrClosed {
		t.Errorf("ReceiveTimeout after Close = %v, want ErrClosed", err)
	}
}

func TestBrokerCloseWakesBlockedReceive(t *testing.T) {
	b := NewBroker()
	c, err := b.Consumer("t", "")
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			_, err := c.Receive()
			errs <- err
		}()
	}
	time.Sleep(5 * time.Millisecond)
	b.Close()
	for i := 0; i < 4; i++ {
		select {
		case err := <-errs:
			if err != ErrClosed {
				t.Errorf("Receive after broker Close = %v, want ErrClosed", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("broker Close did not wake a blocked Receive")
		}
	}
}

func TestReceiveTimeoutWakesOnMessage(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	p, _ := b.Producer("t", "")
	c, _ := b.Consumer("t", "")
	go func() {
		time.Sleep(10 * time.Millisecond)
		p.Send([]byte("late"))
	}()
	start := time.Now()
	got, err := c.ReceiveTimeout(10 * time.Second)
	if err != nil || string(got) != "late" {
		t.Fatalf("ReceiveTimeout = %q, %v", got, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("blocked wait took %v; the cond wait is not being woken", elapsed)
	}
}

func TestReceiveTimeoutExpiryLeavesConsumerUsable(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	p, _ := b.Producer("t", "")
	c, _ := b.Consumer("t", "")
	// A burst of expirations must not poison later receives (the expiry
	// flag is per-call) or leak armed timers.
	for i := 0; i < 50; i++ {
		if _, err := c.ReceiveTimeout(time.Millisecond); err == nil {
			t.Fatal("ReceiveTimeout on an empty topic returned no error")
		}
	}
	p.Send([]byte("x"))
	if got, err := c.ReceiveTimeout(time.Second); err != nil || string(got) != "x" {
		t.Fatalf("receive after expirations = %q, %v", got, err)
	}
}

func TestSendAfterTopicDrainedStillWorks(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	p, _ := b.Producer("t", "")
	c, _ := b.Consumer("t", "")
	for round := 0; round < 3; round++ {
		if err := p.Send([]byte{byte(round)}); err != nil {
			t.Fatal(err)
		}
		got, err := c.Receive()
		if err != nil || got[0] != byte(round) {
			t.Fatalf("round %d: %v %v", round, got, err)
		}
	}
}

func TestShaperBandwidthAndLatencyCompose(t *testing.T) {
	// 1 Mbps + 30ms latency: 12500 bytes = 100ms on the link + 30ms of
	// propagation, none of it spent by the sender of a lone message.
	clk := clock.NewFake()
	s := newShaperClock(1, 30*time.Millisecond, clk)
	t0 := clk.Now()
	if at := s.Transmit(12500); !at.Equal(t0.Add(130 * time.Millisecond)) {
		t.Errorf("composed delay %v, want 130ms", at.Sub(t0))
	}
	if !clk.Now().Equal(t0) {
		t.Errorf("lone sender slept %v", clk.Now().Sub(t0))
	}
}

func TestGatewayRejectsGarbageHandshake(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	g := NewGateway(b)
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := DialProducer(addr, "", ""); err != nil {
		// empty topic is fine for the broker; the dial itself must work
		t.Logf("dial with empty topic: %v", err)
	}
}
