package mq

import (
	"encoding/binary"
	"testing"
	"time"

	"vf2boost/internal/clock"
)

// The link model (shaper.go): occupancy is charged to the sender,
// propagation to the message. These tests run on virtual time, so every
// duration below is exact rather than a wall-clock estimate.

// wanLink returns a broker behind the benchmark's WAN: 25 Mbps, 20 ms.
func wanLink(t *testing.T) (*clock.Fake, *Shaper, *Broker) {
	t.Helper()
	clk := clock.NewFake()
	sh := newShaperClock(25, 20*time.Millisecond, clk)
	b := NewBroker(WithShaper(sh))
	t.Cleanup(b.Close)
	return clk, sh, b
}

func mustAttach(t *testing.T, b *Broker, topic string) (*Producer, *Consumer) {
	t.Helper()
	p, err := b.Producer(topic, "")
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.Consumer(topic, "")
	if err != nil {
		t.Fatal(err)
	}
	return p, c
}

// txTime is how long n bytes occupy a 25 Mbps link.
func txTime(n int) time.Duration {
	return time.Duration(float64(n) / (25e6 / 8) * float64(time.Second))
}

// TestStreamRunsAtLinkBandwidth: one producer streaming back-to-back
// messages gets the configured bandwidth, and the stream ends one latency
// after its last byte left. Under the old stop-and-wait shaper the same
// stream took bytes/bandwidth + 32 latencies.
func TestStreamRunsAtLinkBandwidth(t *testing.T) {
	const msgs, size = 32, 64 << 10
	clk, sh, b := wanLink(t)
	p, c := mustAttach(t, b, "stream")
	t0 := clk.Now()
	payload := make([]byte, size)
	clk.Drive(func() {
		for i := 0; i < msgs; i++ {
			if err := p.Send(payload); err != nil {
				t.Error(err)
				return
			}
		}
	})
	sent := clk.Now().Sub(t0)
	clk.Drive(func() {
		for i := 0; i < msgs; i++ {
			if _, err := c.Receive(); err != nil {
				t.Error(err)
				return
			}
		}
	})
	ideal := txTime(msgs*size) + 20*time.Millisecond
	if got := clk.Now().Sub(t0); got < ideal || got > ideal+ideal/10 {
		t.Errorf("stream of %d x %d B received after %v, want within 10%% above bytes/bandwidth + latency = %v", msgs, size, got, ideal)
	}
	// The sender is released when its last slot starts: it ran one
	// message ahead of the link, never more.
	if want := txTime((msgs - 1) * size); sent < want-time.Microsecond || sent > want+time.Microsecond {
		t.Errorf("sender finished after %v, want %v (start of the last slot)", sent, want)
	}
	if got := sh.BlockedTime(); got != sent {
		t.Errorf("BlockedTime %v, want the %v the sender spent waiting for slots", got, sent)
	}
}

// TestLoneMessageTakesTxPlusLatency: a single message on an idle link
// costs its sender nothing and is not receivable a nanosecond before its
// transmission time plus the latency.
func TestLoneMessageTakesTxPlusLatency(t *testing.T) {
	clk, sh, b := wanLink(t)
	p, c := mustAttach(t, b, "lone")
	t0 := clk.Now()
	if err := p.Send(make([]byte, 1000)); err != nil {
		t.Fatal(err)
	}
	if !clk.Now().Equal(t0) || sh.BlockedTime() != 0 {
		t.Fatalf("lone sender slept %v (blocked %v)", clk.Now().Sub(t0), sh.BlockedTime())
	}
	if depth := b.TopicDepth("lone"); depth != 1 {
		t.Fatalf("TopicDepth %d, want 1: a message in flight counts", depth)
	}
	due := txTime(1000) + 20*time.Millisecond
	clk.Drive(func() {
		if _, err := c.ReceiveTimeout(due - time.Nanosecond); err == nil {
			t.Error("message received before tx + latency had passed")
		}
	})
	if got := clk.Now().Sub(t0); got != due-time.Nanosecond {
		t.Fatalf("early receive gave up after %v, want %v", got, due-time.Nanosecond)
	}
	clk.Drive(func() {
		if _, err := c.Receive(); err != nil {
			t.Error(err)
		}
	})
	if got := clk.Now().Sub(t0); got != due {
		t.Fatalf("message received after %v, want tx + latency = %v", got, due)
	}
}

// TestTopicFIFOUnderConcurrentProducers: eight producers of mixed message
// sizes share one topic; the consumer sees each producer's messages in the
// order they were sent, every message once.
func TestTopicFIFOUnderConcurrentProducers(t *testing.T) {
	const producers, per = 8, 25
	clk, _, b := wanLink(t)
	_, c := mustAttach(t, b, "fifo")
	actors := make([]func(), producers)
	for i := range actors {
		p, err := b.Producer("fifo", "")
		if err != nil {
			t.Fatal(err)
		}
		actors[i] = func() {
			for seq := 0; seq < per; seq++ {
				// 8 B to 16 KiB, different for every (producer, seq).
				payload := make([]byte, 8+(i*31+seq*977)%(16<<10))
				binary.BigEndian.PutUint32(payload, uint32(i))
				binary.BigEndian.PutUint32(payload[4:], uint32(seq))
				if err := p.Send(payload); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	clk.Drive(actors...)
	next := make([]uint32, producers)
	clk.Drive(func() {
		for n := 0; n < producers*per; n++ {
			payload, err := c.Receive()
			if err != nil {
				t.Error(err)
				return
			}
			i, seq := binary.BigEndian.Uint32(payload), binary.BigEndian.Uint32(payload[4:])
			if seq != next[i] {
				t.Errorf("producer %d: received message %d, want %d", i, seq, next[i])
				return
			}
			next[i]++
		}
	})
	if depth := b.TopicDepth("fifo"); depth != 0 {
		t.Errorf("%d messages left over", depth)
	}
}

// TestSendersShareOneLink: two producers on different topics (the two
// directions of a session) still contend for the one serialized link, so
// together they cannot move more than the configured bandwidth.
func TestSendersShareOneLink(t *testing.T) {
	const msgs, size = 16, 32 << 10
	clk, sh, b := wanLink(t)
	t0 := clk.Now()
	var consumers []*Consumer
	var actors []func()
	for _, topic := range []string{"b2a", "a2b"} {
		p, c := mustAttach(t, b, topic)
		consumers = append(consumers, c)
		actors = append(actors, func() {
			for i := 0; i < msgs; i++ {
				if err := p.Send(make([]byte, size)); err != nil {
					t.Error(err)
					return
				}
			}
		})
	}
	clk.Drive(actors...)
	drain := func(c *Consumer) func() {
		return func() {
			for i := 0; i < msgs; i++ {
				if _, err := c.Receive(); err != nil {
					t.Error(err)
					return
				}
			}
		}
	}
	clk.Drive(drain(consumers[0]), drain(consumers[1]))
	elapsed := clk.Now().Sub(t0)
	if rate := float64(sh.Bytes()) / elapsed.Seconds(); rate > 25e6/8 {
		t.Errorf("two senders moved %.0f B/s over a %.0f B/s link", rate, 25e6/8)
	}
	if want := txTime(2*msgs*size) + 20*time.Millisecond; elapsed < want-time.Microsecond || elapsed > want+time.Microsecond {
		t.Errorf("both streams received after %v, want %v (a fully used link plus one latency)", elapsed, want)
	}
}

// TestCloseWakesConsumerWaitingForDelivery: a consumer asleep until its
// message's delivery time is woken by Close, of the consumer or of the
// broker, instead of sleeping the latency out.
func TestCloseWakesConsumerWaitingForDelivery(t *testing.T) {
	for name, closeIt := range map[string]func(*Broker, *Consumer){
		"consumer": func(_ *Broker, c *Consumer) { c.Close() },
		"broker":   func(b *Broker, _ *Consumer) { b.Close() },
	} {
		t.Run(name, func(t *testing.T) {
			clk, _, b := wanLink(t)
			p, c := mustAttach(t, b, "t")
			if err := p.Send([]byte("in flight")); err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := c.Receive()
				errc <- err
			}()
			clk.BlockUntil(1) // asleep until delivery
			closeIt(b, c)
			if err := <-errc; err != ErrClosed {
				t.Fatalf("Receive = %v, want ErrClosed", err)
			}
		})
	}
}

// TestLatencyHoldsOnTheWallClock is the one check against real time, and
// only a lower bound, so a slow host cannot fail it: a message sent over
// a 30 ms link is not received sooner.
func TestLatencyHoldsOnTheWallClock(t *testing.T) {
	b := NewBroker(WithShaper(NewShaper(0, 30*time.Millisecond)))
	defer b.Close()
	p, c := mustAttach(t, b, "t")
	start := time.Now()
	if err := p.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Receive(); err != nil {
		t.Fatal(err)
	}
	if got := time.Since(start); got < 30*time.Millisecond {
		t.Errorf("received after %v over a 30ms link", got)
	}
}
