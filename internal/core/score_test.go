package core

import (
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"vf2boost/internal/wire"
)

// TestScorePlacementsRouteMargins: the micro-batch helpers must reproduce
// the glued model's margins on an arbitrary row subset, including
// duplicated and out-of-order rows.
func TestScorePlacementsRouteMargins(t *testing.T) {
	_, parts := twoPartyData(t, 200, 5, 4, 1, true, 84)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 3
	m, _ := trainFed(t, parts, cfg)
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	rows := []int32{17, 3, 3, 199, 0, 42}
	nodes, err := ScorePlacements(m.Parties[0], parts[0], rows)
	if err != nil {
		t.Fatal(err)
	}
	routes := make(map[RouteKey][]byte)
	for _, nb := range nodes {
		routes[RouteKey{Party: 0, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
	}
	got, err := RouteMargins(m.Parties[1], m.LearningRate, m.BaseScore, parts[1], rows, routes)
	if err != nil {
		t.Fatal(err)
	}
	for k, r := range rows {
		if math.Abs(got[k]-want[r]) > 1e-12 {
			t.Errorf("row %d margin %g, want %g", r, got[k], want[r])
		}
	}

	// Out-of-range rows are rejected on both sides.
	if _, err := ScorePlacements(m.Parties[0], parts[0], []int32{10_000}); err == nil {
		t.Error("ScorePlacements accepted an out-of-range row")
	}
	if _, err := RouteMargins(m.Parties[1], m.LearningRate, 0, parts[1], []int32{-1}, routes); err == nil {
		t.Error("RouteMargins accepted a negative row")
	}
}

// TestServePredictLoop: one session must serve repeated prediction rounds
// — including a per-round error that keeps the session alive — and end
// cleanly on MsgShutdown.
func TestServePredictLoop(t *testing.T) {
	_, parts := twoPartyData(t, 150, 5, 4, 1, true, 85)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 2
	m, _ := trainFed(t, parts, cfg)
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	aSide := chanTransport{ch: make(chan []byte, 8)}
	bSide := chanTransport{ch: make(chan []byte, 8)}
	aTr := pairTransport{send: bSide.Send, recv: aSide.Receive}
	bTr := pairTransport{send: aSide.Send, recv: bSide.Receive}

	var wg sync.WaitGroup
	var loopErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		loopErr = ServePredictLoop(m.Parties[0], parts[0], aTr)
	}()

	// Three rounds on one session.
	for round := 0; round < 3; round++ {
		got, err := PredictRemote(m.Parties[1], m.LearningRate, parts[1], []Transport{bTr})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i := range want {
			if math.Abs(got[i]-want[i]) > 1e-12 {
				t.Fatalf("round %d differs at row %d", round, i)
			}
		}
	}

	// A misaligned round errors at B but must not kill the session.
	l := NewLink(bTr)
	if err := l.send(MsgPredictStart{Rows: 9999}); err != nil {
		t.Fatal(err)
	}
	msg, err := l.recv()
	if err != nil {
		t.Fatal(err)
	}
	if pl := msg.(MsgPredictPlacements); pl.Error == "" {
		t.Fatal("misaligned round was not answered with a structured error")
	}

	// The session still serves after the error round.
	if _, err := PredictRemote(m.Parties[1], m.LearningRate, parts[1], []Transport{bTr}); err != nil {
		t.Fatalf("round after error: %v", err)
	}

	// Clean shutdown.
	if err := l.send(MsgShutdown{}); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if loopErr != nil {
		t.Fatalf("loop exited with %v", loopErr)
	}
}

// replayTransport yields its frames in order, then io.EOF — a peer that
// sent them and hung up. Sends are discarded.
type replayTransport struct{ frames chan []byte }

func replayOf(frames ...[]byte) replayTransport {
	r := replayTransport{frames: make(chan []byte, len(frames))}
	for _, f := range frames {
		r.frames <- f
	}
	return r
}

func (replayTransport) Send([]byte) error { return nil }

func (r replayTransport) Receive() ([]byte, error) {
	select {
	case f := <-r.frames:
		return f, nil
	default:
		return nil, io.EOF
	}
}

// TestServePredictLoopEndsOnUndecodableFrame: a frame that arrived but
// cannot be decoded — one under the retired gob tag, one with an unknown
// message ID — ends the loop with ErrUndecodable instead of passing for a
// disconnect; a transport that closes still ends it cleanly.
func TestServePredictLoopEndsOnUndecodableFrame(t *testing.T) {
	_, parts := twoPartyData(t, 20, 2, 2, 1, true, 86)
	frag := &PartyModel{Party: 0}
	for name, frame := range map[string][]byte{
		"retired gob tag":    retagged(wire.TagGob, MsgPredictStart{Rows: 20}),
		"unknown message ID": rawFrame(0xFFFE, nil),
	} {
		if err := ServePredictLoop(frag, parts[0], replayOf(frame)); !errors.Is(err, ErrUndecodable) {
			t.Errorf("%s: loop ended with %v, want ErrUndecodable", name, err)
		}
	}
	if err := ServePredictLoop(frag, parts[0], replayOf()); err != nil {
		t.Errorf("closed transport: loop ended with %v, want nil", err)
	}
}
