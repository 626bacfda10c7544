package core

import (
	"bytes"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// chanTransport is an in-memory Transport for message-layer tests.
type chanTransport struct {
	ch chan []byte
}

func (c chanTransport) Send(b []byte) error {
	cp := append([]byte(nil), b...)
	c.ch <- cp
	return nil
}

func (c chanTransport) Receive() ([]byte, error) { return <-c.ch, nil }

// testViews bins each party's dataset the way NewSession does, into the
// views RunPassiveParty and RunActiveParty take. Call it on the test
// goroutine, before starting the parties.
func testViews(t testing.TB, cfg Config, parts ...*dataset.Dataset) []gbdt.BinView {
	t.Helper()
	views := make([]gbdt.BinView, len(parts))
	for i, d := range parts {
		v, err := binDataset(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		views[i] = v
	}
	return views
}

// testPassive normalizes cfg, bins data the way NewSession does and builds
// passive party 0 over it.
func testPassive(t testing.TB, data *dataset.Dataset, cfg Config, lk *link) *passiveParty {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return newPassivePartyView(0, testViews(t, cfg, data)[0], cfg, lk, &Stats{})
}

// testActive normalizes cfg, bins data the way NewSession does and builds
// Party B over it.
func testActive(t testing.TB, data *dataset.Dataset, cfg Config, dec he.Decryptor, links []*link) *activeParty {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	b, err := newActivePartyView(testViews(t, cfg, data)[0], data.Labels, cfg, dec, links, &Stats{})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func loopbackLink() *link {
	t := chanTransport{ch: make(chan []byte, 16)}
	return NewLink(t)
}

// discardTransport swallows sends; Receive never returns.
type discardTransport struct{}

func (discardTransport) Send([]byte) error { return nil }
func (discardTransport) Receive() ([]byte, error) {
	select {}
}

// drivenLink feeds a party from a test channel while its own replies are
// discarded (the test plays Party B's sending side only).
func drivenLink() (*link, chanTransport) {
	in := chanTransport{ch: make(chan []byte, 16)}
	return NewLink(pairTransport{send: discardTransport{}.Send, recv: in.Receive}), in
}

func TestLinkRoundTripAllMessageTypes(t *testing.T) {
	l := loopbackLink()
	msgs := []any{
		MsgSetup{Scheme: "paillier", N: []byte{1, 2, 3}, Bits: 512, BaseExp: 8, ExpSpread: 4, PairBits: 50, PackBits: 100, ObfBase: []byte{7, 7}, ObfBits: 224},
		MsgReady{Party: 2, Features: 10, Rows: 100},
		MsgPairBatch{Tree: 1, Start: 5, Cts: [][]byte{{9}}, Exp: []int16{8}, Last: true},
		MsgHistograms{Tree: 1, Layer: 2, Nodes: []NodeHist{{
			Node: 3, Parent: 1, Sibling: 2, Packed: true,
			Feats: []FeatHist{
				{NumBins: 2, Occupied: []byte{0b01}},
				{NumBins: 3, Occupied: []byte{0b100}},
			},
		}}},
		MsgDecisions{Tree: 1, Layer: 0, Tentative: true, Nodes: []NodeDecision{
			{Node: 1, Action: ActionSplitB, LeftID: 2, RightID: 3, Placement: []byte{0b101}, Count: 3},
			{Node: 4, Action: ActionLeaf},
			{Node: 5, Action: ActionSplitA, Owner: 1, Feature: 7, Bin: 2, AbortLeft: 8, AbortRight: 9},
		}},
		MsgDirty{Tree: 1, Layer: 3, Node: 7, OldLeft: 8, OldRight: 9, LeftID: 10, RightID: 11, Feature: 4, Bin: 1},
		MsgPlacement{Tree: 1, Layer: 3, Node: 7, Bits: []byte{0xFF}, Count: 8},
		MsgTreeDone{Tree: 1},
		MsgShutdown{},
	}
	for _, m := range msgs {
		if err := l.send(m); err != nil {
			t.Fatalf("send %T: %v", m, err)
		}
		got, err := l.recv()
		if err != nil {
			t.Fatalf("recv %T: %v", m, err)
		}
		switch want := m.(type) {
		case MsgSetup:
			g := got.(MsgSetup)
			if g.Scheme != want.Scheme || g.Bits != want.Bits || g.PairBits != want.PairBits || g.PackBits != want.PackBits || !bytes.Equal(g.ObfBase, want.ObfBase) || g.ObfBits != want.ObfBits {
				t.Errorf("MsgSetup round trip: %+v", g)
			}
		case MsgPairBatch:
			g := got.(MsgPairBatch)
			if g.Start != want.Start || !g.Last || len(g.Cts) != 1 || g.Exp[0] != 8 {
				t.Errorf("MsgPairBatch round trip: %+v", g)
			}
		case MsgHistograms:
			g := got.(MsgHistograms)
			if len(g.Nodes) != 1 || len(g.Nodes[0].Feats) != 2 {
				t.Fatalf("MsgHistograms round trip: %+v", g)
			}
			if n := g.Nodes[0]; !n.Packed || n.Parent != 1 || n.Sibling != 2 {
				t.Errorf("node round trip: %+v", n)
			}
			if f0, f1 := g.Nodes[0].Feats[0], g.Nodes[0].Feats[1]; f0.NumBins != 2 || f0.Occupied[0] != 0b01 || f1.NumBins != 3 || f1.Occupied[0] != 0b100 {
				t.Errorf("feature round trip: %+v %+v", f0, f1)
			}
		case MsgDecisions:
			g := got.(MsgDecisions)
			if !g.Tentative || len(g.Nodes) != 3 || g.Nodes[2].AbortLeft != 8 {
				t.Errorf("MsgDecisions round trip: %+v", g)
			}
		case MsgDirty:
			g := got.(MsgDirty)
			if g != want {
				t.Errorf("MsgDirty round trip: %+v", g)
			}
		case MsgShutdown:
			if _, ok := got.(MsgShutdown); !ok {
				t.Errorf("MsgShutdown round trip: %T", got)
			}
		}
	}
}

// TestLinkRoundTripMultiOutputFrames covers the objective negotiation in
// the scalar setup and the per-class gradient streams, which ride the
// same frames as binary sessions (Class is always on the wire).
func TestLinkRoundTripMultiOutputFrames(t *testing.T) {
	l := loopbackLink()

	setup := MsgSetup{
		Scheme: SchemeMock, Bits: 512, BaseExp: 8, ExpSpread: 4, PairBits: 56,
		Objective: "multiclass:3", Outputs: 3,
	}
	if err := l.send(setup); err != nil {
		t.Fatal(err)
	}
	got, err := l.recv()
	if err != nil {
		t.Fatal(err)
	}
	gs := got.(MsgSetup)
	if gs.Objective != "multiclass:3" || gs.Outputs != 3 || gs.Scheme != SchemeMock || gs.Bits != 512 || gs.PairBits != 56 {
		t.Errorf("MsgSetup round trip: %+v", gs)
	}

	for _, class := range []int{0, 2} {
		gb := MsgPairBatch{Tree: 6, Class: class, Start: 5, Last: true, Cts: [][]byte{{9}}, Exp: []int16{8}}
		if gb.WireID() != idPairBatch {
			t.Fatalf("class %d batch encodes under id %d", class, gb.WireID())
		}
		if err := l.send(gb); err != nil {
			t.Fatal(err)
		}
		got, err := l.recv()
		if err != nil {
			t.Fatal(err)
		}
		gg := got.(MsgPairBatch)
		if gg.Class != class || gg.Tree != 6 || gg.Start != 5 || !gg.Last || gg.Exp[0] != 8 {
			t.Errorf("MsgPairBatch class %d round trip: %+v", class, gg)
		}
	}
}

func TestPassivePartyRejectsUnknownMessageOrder(t *testing.T) {
	_, parts := twoPartyData(t, 30, 2, 2, 1, true, 71)
	l, feed := drivenLink()
	p := testPassive(t, parts[0], quickConfig(SchemeMock), l)
	// Gradients before setup must fail.
	if err := NewLink(feed).send(MsgPairBatch{Tree: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.run(); err == nil {
		t.Error("gradients before setup accepted")
	}
}

// mustNormalize returns a normalized copy of the config for direct engine
// construction in tests.
func mustNormalize(t *testing.T, cfg Config) Config {
	t.Helper()
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return cfg
}
