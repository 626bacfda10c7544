package core

import (
	"math"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// newBareActiveParty builds a Party B engine with no links, enough for
// unit-testing its helpers.
func newBareActiveParty(t *testing.T, rows, cols int, seed int64) *activeParty {
	t.Helper()
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: cols, Density: 1, Dense: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	cfg := mustNormalize(t, quickConfig(SchemeMock))
	b := testActive(t, d, cfg, he.NewMock(512), nil)
	n := d.Rows()
	b.grads = make([]float64, n)
	b.hess = make([]float64, n)
	for i := 0; i < n; i++ {
		b.grads[i] = float64(i%5) - 2
		b.hess[i] = 0.25
	}
	return b
}

func TestChildStats(t *testing.T) {
	b := newBareActiveParty(t, 50, 3, 91)
	g, h := b.childStats([]int32{0, 1, 2, 3, 4})
	wantG := -2.0 + -1 + 0 + 1 + 2
	if math.Abs(g-wantG) > 1e-12 || math.Abs(h-1.25) > 1e-12 {
		t.Errorf("childStats = (%g, %g), want (%g, 1.25)", g, h, wantG)
	}
	if g, h := b.childStats(nil); g != 0 || h != 0 {
		t.Error("empty childStats not zero")
	}
}

func TestPlacementBitmapPartition(t *testing.T) {
	b := newBareActiveParty(t, 60, 3, 92)
	insts := make([]int32, 60)
	for i := range insts {
		insts[i] = int32(i)
	}
	sp := newNodeSplit(insts, 0, 0)
	if err := b.units.routeNodes(b.view, []*nodeSplit{sp}); err != nil {
		t.Fatal(err)
	}
	bits, left, right := sp.bits, sp.left, sp.right
	if len(left)+len(right) != 60 {
		t.Fatalf("partition lost instances: %d + %d", len(left), len(right))
	}
	for k, inst := range insts {
		wantLeft, err := gbdt.GoesLeft(b.view, inst, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bitmapGet(bits, k) != wantLeft {
			t.Fatalf("bitmap bit %d disagrees with GoesLeft", k)
		}
	}
	// left/right must preserve instance order.
	for i := 1; i < len(left); i++ {
		if left[i] <= left[i-1] {
			t.Fatal("left not in order")
		}
	}
}

func TestBetterCandidateOrder(t *testing.T) {
	a := candidate{split: gbdt.Split{Gain: 5, Bin: 1}, party: 0, globalFeat: 10}
	b := candidate{split: gbdt.Split{Gain: 5, Bin: 0}, party: 1, globalFeat: 3}
	if betterCandidate(a, b) || !betterCandidate(b, a) {
		t.Error("tie must break toward the lower global feature")
	}
	c := candidate{split: gbdt.Split{Gain: 6, Bin: 9}, party: 1, globalFeat: 99}
	if !betterCandidate(c, b) {
		t.Error("higher gain must win regardless of feature index")
	}
	d := candidate{split: gbdt.Split{Gain: 5, Bin: 0}, party: 0, globalFeat: 3}
	e := candidate{split: gbdt.Split{Gain: 5, Bin: 2}, party: 0, globalFeat: 3}
	if !betterCandidate(d, e) || betterCandidate(e, d) {
		t.Error("same feature tie must break toward the lower bin")
	}
}

// TestDecryptEmptyBinPayload: empty bins remain legal (zero contribution),
// so hardening must not reject the protocol's own encoding of one: no slot
// and, for a node without any, no ciphertext.
func TestDecryptEmptyBinPayload(t *testing.T) {
	b := newBareActiveParty(t, 10, 2, 93)
	b.featCounts = []int{1}
	s, err := b.unpackNode(0, 0, NodeHist{Node: rootID, Packed: true, Feats: []FeatHist{{NumBins: 1, Occupied: []byte{0}}}})
	if err != nil {
		t.Fatal(err)
	}
	fs := s[0]
	if g, h := fs.floats(b.codec.Base(), b.plan.exp); g[0] != 0 || h[0] != 0 || fs.g[0] != nil {
		t.Errorf("empty bin = %g, %g (fields %v); want 0, 0, nil", g[0], h[0], fs.g[0])
	}
}

func TestAllocIDMonotonic(t *testing.T) {
	b := newBareActiveParty(t, 10, 2, 94)
	b.nextID = rootID
	prev := rootID
	for i := 0; i < 10; i++ {
		id := b.allocID()
		if id <= prev {
			t.Fatal("IDs not strictly increasing")
		}
		prev = id
	}
}

func TestOwnBestMatchesLocalBestSplit(t *testing.T) {
	b := newBareActiveParty(t, 200, 4, 95)
	insts := make([]int32, 200)
	var g0, h0 float64
	for i := range insts {
		insts[i] = int32(i)
		g0 += b.grads[i]
		h0 += b.hess[i]
	}
	node := &bNode{id: rootID, insts: insts, g: g0, h: h0}
	hists, err := b.buildOwnHistograms([]*bNode{node})
	if err != nil {
		t.Fatal(err)
	}
	cand := b.ownBest(hists[0], node)
	want := gbdt.BestSplit(hists[0], g0, h0, b.cfg.Split)
	if cand.split != want {
		t.Errorf("ownBest = %+v, want %+v", cand.split, want)
	}
	if cand.valid() && cand.globalFeat != b.bOffset+want.Feature {
		t.Errorf("globalFeat = %d", cand.globalFeat)
	}
}
