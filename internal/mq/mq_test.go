package mq

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"vf2boost/internal/clock"
)

func TestProduceConsumeFIFO(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	p, err := b.Producer("t", "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Consumer("t", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := p.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		got, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != byte(i) {
			t.Fatalf("message %d out of order: %v", i, got)
		}
	}
	if b.MessagesSent() != 10 {
		t.Errorf("MessagesSent = %d", b.MessagesSent())
	}
	if b.BytesSent() != 10 {
		t.Errorf("BytesSent = %d", b.BytesSent())
	}
}

func TestEffectivelyOnceDedup(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	p, _ := b.Producer("t", "")
	c, _ := b.Consumer("t", "")
	// A retry loop re-sends the same IDs; duplicates must be dropped.
	for attempt := 0; attempt < 3; attempt++ {
		for id := uint64(1); id <= 5; id++ {
			if err := p.SendWithID(id, []byte(fmt.Sprintf("m%d", id))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if b.MessagesSent() != 5 {
		t.Fatalf("delivered %d messages, want 5", b.MessagesSent())
	}
	if b.DuplicatesSuppressed() != 10 {
		t.Errorf("suppressed %d duplicates, want 10", b.DuplicatesSuppressed())
	}
	for id := 1; id <= 5; id++ {
		got, err := c.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != fmt.Sprintf("m%d", id) {
			t.Fatalf("got %q", got)
		}
	}
}

func TestIndependentProducersDedupSeparately(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	p1, _ := b.Producer("t", "")
	p2, _ := b.Producer("t", "")
	if err := p1.SendWithID(1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if err := p2.SendWithID(1, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if b.MessagesSent() != 2 {
		t.Fatalf("two producers with same ID must both deliver, got %d", b.MessagesSent())
	}
}

func TestAuth(t *testing.T) {
	secret := []byte("shared-secret")
	b := NewBroker(WithAuth(secret))
	defer b.Close()
	if _, err := b.Producer("t", "wrong"); err != ErrAuth {
		t.Errorf("bad token accepted: %v", err)
	}
	if _, err := b.Consumer("t", ""); err != ErrAuth {
		t.Errorf("empty token accepted: %v", err)
	}
	tok := Token(secret, "t")
	if _, err := b.Producer("t", tok); err != nil {
		t.Errorf("valid token rejected: %v", err)
	}
	// Tokens are topic-scoped.
	if _, err := b.Producer("other", tok); err != ErrAuth {
		t.Errorf("cross-topic token accepted: %v", err)
	}
	if !VerifyToken(secret, "t", tok) || VerifyToken(secret, "t", "nope") {
		t.Error("VerifyToken broken")
	}
}

func TestCloseWakesConsumers(t *testing.T) {
	b := NewBroker()
	c, _ := b.Consumer("t", "")
	done := make(chan error, 1)
	go func() {
		_, err := c.Receive()
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	b.Close()
	select {
	case err := <-done:
		if err != ErrClosed {
			t.Errorf("Receive after close = %v, want ErrClosed", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("consumer not woken by Close")
	}
	p, err := b.Producer("t", "")
	if err != ErrClosed {
		t.Errorf("Producer on closed broker: %v", err)
	}
	_ = p
}

func TestReceiveTimeout(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	c, _ := b.Consumer("t", "")
	start := time.Now()
	if _, err := c.ReceiveTimeout(30 * time.Millisecond); err == nil {
		t.Error("timeout did not fire")
	}
	if time.Since(start) > time.Second {
		t.Error("timeout waited far too long")
	}
	p, _ := b.Producer("t", "")
	p.Send([]byte("x"))
	got, err := c.ReceiveTimeout(time.Second)
	if err != nil || string(got) != "x" {
		t.Errorf("ReceiveTimeout = %q, %v", got, err)
	}
}

func TestConcurrentProducersAndConsumer(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	const producers = 8
	const per = 200
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := b.Producer("t", "")
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < per; i++ {
				if err := p.Send([]byte{1}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	c, _ := b.Consumer("t", "")
	received := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		for received < producers*per {
			if _, err := c.Receive(); err != nil {
				t.Error(err)
				return
			}
			received++
		}
	}()
	wg.Wait()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("received only %d of %d", received, producers*per)
	}
}

func TestShaperAccountsAndDelays(t *testing.T) {
	// 1 Mbps -> 125000 B/s; 12500 bytes occupy the link for 100ms.
	clk := clock.NewFake()
	s := newShaperClock(1, 0, clk)
	t0 := clk.Now()
	if at := s.Transmit(12500); !at.Equal(t0.Add(100 * time.Millisecond)) {
		t.Errorf("12500B at 1Mbps deliverable after %v, want 100ms", at.Sub(t0))
	}
	if !clk.Now().Equal(t0) || s.BlockedTime() != 0 {
		t.Errorf("sender on an idle link slept %v (blocked %v), want 0", clk.Now().Sub(t0), s.BlockedTime())
	}
	// The second message queues behind the first: its sender is held
	// until the link frees up, and that wait is what BlockedTime counts.
	var at time.Time
	clk.Drive(func() { at = s.Transmit(12500) })
	if got := clk.Now().Sub(t0); got != 100*time.Millisecond {
		t.Errorf("second sender released after %v, want 100ms (its slot start)", got)
	}
	if !at.Equal(t0.Add(200 * time.Millisecond)) {
		t.Errorf("second message deliverable after %v, want 200ms", at.Sub(t0))
	}
	if s.Bytes() != 25000 {
		t.Errorf("Bytes = %d", s.Bytes())
	}
	if s.BlockedTime() != 100*time.Millisecond {
		t.Errorf("BlockedTime = %v, want 100ms", s.BlockedTime())
	}
	s.Reset()
	if s.Bytes() != 0 || s.BlockedTime() != 0 {
		t.Error("Reset did not clear counters")
	}
}

func TestShaperSerializesLink(t *testing.T) {
	clk := clock.NewFake()
	s := newShaperClock(1, 0, clk) // 125000 B/s
	t0 := clk.Now()
	var mu sync.Mutex
	var last time.Time
	send := func() {
		at := s.Transmit(6250) // 50ms each
		mu.Lock()
		if at.After(last) {
			last = at
		}
		mu.Unlock()
	}
	clk.Drive(send, send, send, send)
	if got := last.Sub(t0); got != 200*time.Millisecond {
		t.Errorf("4 concurrent 50ms transmissions all delivered after %v, want 200ms; link not serialized", got)
	}
	// Slots start at 0, 50, 100 and 150ms; each sender waits for its own.
	if got := s.BlockedTime(); got != 300*time.Millisecond {
		t.Errorf("BlockedTime = %v, want 300ms", got)
	}
}

func TestShaperUnlimited(t *testing.T) {
	clk := clock.NewFake()
	s := newShaperClock(0, 0, clk)
	if at := s.Transmit(1 << 20); !at.IsZero() {
		t.Errorf("unlimited shaper delays delivery until %v", at)
	}
	if s.BlockedTime() != 0 {
		t.Error("unlimited shaper blocked the sender")
	}
}

func TestShaperLatencyOnly(t *testing.T) {
	clk := clock.NewFake()
	s := newShaperClock(0, 20*time.Millisecond, clk)
	t0 := clk.Now()
	if at := s.Transmit(10); !at.Equal(t0.Add(20 * time.Millisecond)) {
		t.Errorf("deliverable after %v, want the 20ms latency", at.Sub(t0))
	}
	if s.BlockedTime() != 0 {
		t.Error("propagation latency was charged to the sender")
	}
}

func TestBrokerWithShaperCountsBytes(t *testing.T) {
	sh := NewShaper(0, 0)
	b := NewBroker(WithShaper(sh))
	defer b.Close()
	p, _ := b.Producer("t", "")
	c, _ := b.Consumer("t", "")
	payload := bytes.Repeat([]byte("x"), 1000)
	p.Send(payload)
	c.Receive()
	if sh.Bytes() != 1000 {
		t.Errorf("shaper saw %d bytes", sh.Bytes())
	}
}

func TestTCPGatewayRoundTrip(t *testing.T) {
	secret := []byte("s3cr3t")
	b := NewBroker(WithAuth(secret))
	defer b.Close()
	g := NewGateway(b)
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()

	tok := Token(secret, "a2b")
	prod, err := DialProducer(addr, "a2b", tok)
	if err != nil {
		t.Fatal(err)
	}
	defer prod.Close()
	cons, err := DialConsumer(addr, "a2b", tok)
	if err != nil {
		t.Fatal(err)
	}
	defer cons.Close()

	for i := 0; i < 20; i++ {
		msg := []byte(fmt.Sprintf("payload-%d", i))
		if err := prod.Send(msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		got, err := cons.Receive()
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("payload-%d", i); string(got) != want {
			t.Fatalf("got %q want %q", got, want)
		}
	}
}

func TestTCPGatewayRejectsBadToken(t *testing.T) {
	b := NewBroker(WithAuth([]byte("k")))
	defer b.Close()
	g := NewGateway(b)
	addr, err := g.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := DialProducer(addr, "t", "bad"); err == nil {
		t.Error("bad token accepted over TCP")
	}
	if _, err := DialConsumer(addr, "t", "bad"); err == nil {
		t.Error("bad consumer token accepted over TCP")
	}
}

func TestTCPLargePayload(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	g := NewGateway(b)
	addr, _ := g.Listen("127.0.0.1:0")
	defer g.Close()
	prod, err := DialProducer(addr, "big", "")
	if err != nil {
		t.Fatal(err)
	}
	cons, err := DialConsumer(addr, "big", "")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xAB}, 1<<20)
	if err := prod.Send(payload); err != nil {
		t.Fatal(err)
	}
	got, err := cons.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("large payload corrupted")
	}
}

// TestTopicDepth: the queue-depth gauge must track publishes and consumes,
// the backpressure signal the serving layer surfaces in /metricsz.
func TestTopicDepth(t *testing.T) {
	b := NewBroker()
	defer b.Close()
	if d := b.TopicDepth("nope"); d != 0 {
		t.Fatalf("unknown topic depth = %d", d)
	}
	p, err := b.Producer("t", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := p.Send([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if d := b.TopicDepth("t"); d != 3 {
		t.Fatalf("depth after 3 sends = %d", d)
	}
	c, err := b.Consumer("t", "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Receive(); err != nil {
		t.Fatal(err)
	}
	if d := b.TopicDepth("t"); d != 2 {
		t.Fatalf("depth after 1 receive = %d", d)
	}
	depths := b.TopicDepths()
	if depths["t"] != 2 || len(depths) != 1 {
		t.Fatalf("TopicDepths = %v", depths)
	}
	// Duplicate suppression must not inflate the gauge.
	if err := p.SendWithID(1, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if d := b.TopicDepth("t"); d != 2 {
		t.Fatalf("depth after suppressed duplicate = %d", d)
	}
}
