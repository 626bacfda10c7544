package fault

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"vf2boost/internal/clock"
)

// recTransport records sent frames and serves queued receives.
type recTransport struct {
	sent [][]byte
}

func (r *recTransport) Send(p []byte) error { r.sent = append(r.sent, p); return nil }
func (r *recTransport) Receive() ([]byte, error) {
	if len(r.sent) == 0 {
		return nil, errors.New("empty")
	}
	p := r.sent[0]
	r.sent = r.sent[1:]
	return p, nil
}

func TestParseSpecRoundTrip(t *testing.T) {
	spec := "cut=40,delay=0.1,delayfor=2ms,drop=0.05,dup=0.02,reorder=0.01,seed=7"
	c, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	want := Config{Seed: 7, Drop: 0.05, Dup: 0.02, Reorder: 0.01, Delay: 0.1,
		DelayFor: 2 * time.Millisecond, DisconnectAfter: 40}
	if c != want {
		t.Fatalf("ParseSpec = %+v, want %+v", c, want)
	}
	if got := c.String(); got != spec {
		t.Errorf("String = %q, want %q", got, spec)
	}
	if !c.Enabled() {
		t.Error("Enabled = false for a non-trivial config")
	}
	if c.WithoutCut().DisconnectAfter != 0 {
		t.Error("WithoutCut kept the disconnect")
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{"drop", "drop=2", "drop=-0.1", "bogus=1", "delayfor=xyz"} {
		if _, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted an invalid spec", spec)
		}
	}
	if c, err := ParseSpec(""); err != nil || c.Enabled() {
		t.Errorf("ParseSpec(\"\") = %+v, %v, want zero config", c, err)
	}
}

// TestDeterministicSchedule feeds the same frame sequence through two
// identically-seeded links and asserts identical delivery, and that a
// different seed yields a different schedule.
func TestDeterministicSchedule(t *testing.T) {
	run := func(seed int64) [][]byte {
		inner := &recTransport{}
		l := Wrap(inner, Config{Seed: seed, Drop: 0.3, Dup: 0.2, Reorder: 0.2})
		for i := 0; i < 200; i++ {
			if err := l.Send([]byte(fmt.Sprintf("frame-%03d", i))); err != nil {
				t.Fatalf("send %d: %v", i, err)
			}
		}
		return inner.sent
	}
	a, b := run(42), run(42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different fault schedules")
	}
	if c := run(43); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical schedules (suspicious)")
	}
}

func TestDisconnect(t *testing.T) {
	inner := &recTransport{}
	l := Wrap(inner, Config{DisconnectAfter: 3})
	for i := 0; i < 3; i++ {
		if err := l.Send([]byte{byte(i)}); err != nil {
			t.Fatalf("send %d before cut: %v", i, err)
		}
	}
	if err := l.Send([]byte{9}); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("send after cut = %v, want ErrDisconnected", err)
	}
	if _, err := l.Receive(); !errors.Is(err, ErrDisconnected) {
		t.Fatalf("receive after cut = %v, want ErrDisconnected", err)
	}
	if !l.Stats().Cut {
		t.Error("stats do not record the cut")
	}
	if len(inner.sent) != 3 {
		t.Errorf("inner saw %d frames, want 3", len(inner.sent))
	}
}

// TestDuplicateIsACopy asserts the duplicated frame does not alias the
// original: downstream owns delivered buffers and may recycle them.
func TestDuplicateIsACopy(t *testing.T) {
	inner := &recTransport{}
	l := Wrap(inner, Config{Seed: 1, Dup: 1})
	if err := l.Send([]byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if len(inner.sent) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(inner.sent))
	}
	inner.sent[0][0] = 99
	if inner.sent[1][0] == 99 {
		t.Fatal("duplicate aliases the original buffer")
	}
}

func TestReorderSwapsAdjacentFrames(t *testing.T) {
	inner := &recTransport{}
	// Reorder every frame: frame 0 is held, released after frame 1;
	// then frame 2 held (the hold slot is free again), and so on.
	l := Wrap(inner, Config{Seed: 1, Reorder: 1})
	for i := byte(0); i < 4; i++ {
		if err := l.Send([]byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	want := [][]byte{{1}, {0}, {3}, {2}}
	if !reflect.DeepEqual(inner.sent, want) {
		t.Fatalf("delivered %v, want %v", inner.sent, want)
	}
}

func TestReceivePassThrough(t *testing.T) {
	inner := &recTransport{sent: [][]byte{{7}}}
	l := Wrap(inner, Config{Drop: 1})
	got, err := l.Receive()
	if err != nil || len(got) != 1 || got[0] != 7 {
		t.Fatalf("Receive = %v, %v", got, err)
	}
}

// chanTransport delivers sent frames on a channel, so a test can see a
// delivery made from another goroutine.
type chanTransport chan []byte

func (c chanTransport) Send(p []byte) error      { c <- p; return nil }
func (c chanTransport) Receive() ([]byte, error) { return <-c, nil }

// TestDelayWaitsOnTheLinkClock: a delayed frame stalls on the link's
// clock, so on a fake clock it is not delivered before DelayFor has
// passed there, and is delivered once it has.
func TestDelayWaitsOnTheLinkClock(t *testing.T) {
	const delay = 40 * time.Millisecond
	fake := clock.NewFake()
	inner := make(chanTransport, 1)
	l := Wrap(inner, Config{Seed: 1, Delay: 1, DelayFor: delay})
	l.clock = fake
	sent := make(chan error, 1)
	go func() { sent <- l.Send([]byte{7}) }()

	fake.BlockUntil(1)
	fake.Advance(delay - time.Nanosecond)
	select {
	case p := <-inner:
		t.Fatalf("frame %v delivered before DelayFor passed", p)
	case <-sent:
		t.Fatal("Send returned before DelayFor passed")
	default:
	}
	fake.Advance(time.Nanosecond)
	if err := <-sent; err != nil {
		t.Fatal(err)
	}
	if p := <-inner; len(p) != 1 || p[0] != 7 {
		t.Fatalf("delivered %v, want [7]", p)
	}
	if s := l.Stats(); s.Delays != 1 {
		t.Errorf("Stats().Delays = %d, want 1", s.Delays)
	}
}
