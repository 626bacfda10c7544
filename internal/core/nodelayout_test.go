package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// TestChunkRule: the chunk rule is a partition of the slots into
// ⌈slots/capacity⌉ contiguous runs, none above capacity, lengths within
// one of each other.
func TestChunkRule(t *testing.T) {
	for _, capacity := range []int{1, 4, 17} {
		p := packPlan{capacity: capacity}
		for slots := 0; slots <= 5*capacity+3; slots++ {
			n := p.chunks(slots)
			if n != (slots+capacity-1)/capacity {
				t.Fatalf("capacity %d: %d slots ship %d ciphertexts", capacity, slots, n)
			}
			next, shortest, longest := 0, capacity, 0
			for c := 0; c < n; c++ {
				lo, hi := p.chunk(slots, c)
				if lo != next || hi <= lo {
					t.Fatalf("capacity %d, %d slots: chunk %d is [%d,%d), want it to start at %d", capacity, slots, c, lo, hi, next)
				}
				next, shortest, longest = hi, min(shortest, hi-lo), max(longest, hi-lo)
			}
			if next != slots || (n > 0 && (longest > capacity || longest-shortest > 1)) {
				t.Fatalf("capacity %d, %d slots: chunks cover %d, lengths %d..%d", capacity, slots, next, shortest, longest)
			}
		}
	}
}

// cell is one occupied workspace cell of a hand-built histogram: the
// signed ⟨g,h⟩ mantissas of a bin at one exponent.
type cell struct {
	exp  int
	g, h *big.Int
}

// layoutRig drives the real wiring code of a passive party and the real
// decryption code of Party B over one shared scheme, on histograms whose
// every integer the test chose.
type layoutRig struct {
	dec   he.Decryptor
	codec *fixedpoint.Codec
	pairs fixedpoint.PairPlan
	// plan packs; single is the same layout at one slot per ciphertext.
	plan, single packPlan
	// bins[j][k] are the cells of feature j's bin k.
	bins [][][]cell
}

func newLayoutRig(t *testing.T, dec he.Decryptor, spread int) *layoutRig {
	t.Helper()
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithExponents(8, spread))
	pairs, err := codec.PlanPairs(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := &layoutRig{dec: dec, codec: codec, pairs: pairs}
	if r.plan, err = planPacking(codec, pairs.W, true); err != nil {
		t.Fatal(err)
	}
	if r.single, err = planPacking(codec, pairs.W, false); err != nil {
		t.Fatal(err)
	}
	return r
}

// planFor is the rig's plan with or without packing.
func (r *layoutRig) planFor(packing bool) packPlan {
	if packing {
		return r.plan
	}
	return r.single
}

// wire builds the histogram from r.bins and ships it through a passive
// party's wireHist, packed or at one slot per ciphertext.
func (r *layoutRig) wire(t *testing.T, packing, reordered bool) NodeHist {
	t.Helper()
	offsets := []int{0}
	for _, feat := range r.bins {
		offsets = append(offsets, offsets[len(offsets)-1]+len(feat))
	}
	eh := &EncHistogram{codec: r.codec, offsets: offsets, reordered: reordered}
	if reordered {
		eh.slots = make([][]he.Ciphertext, r.codec.ExpSpread())
	} else {
		eh.acc = make([]fixedpoint.EncNum, eh.totalBins())
	}
	for j, feat := range r.bins {
		for k, cells := range feat {
			for _, c := range cells {
				man := new(big.Int).Lsh(c.g, uint(r.pairs.W))
				man.Add(man, c.h).Mod(man, r.dec.N())
				ct, err := r.dec.Encrypt(man)
				if err != nil {
					t.Fatal(err)
				}
				eh.add(offsets[j]+k, fixedpoint.EncNum{Exp: c.exp, Ct: ct})
			}
		}
	}
	p := &passiveParty{cfg: DefaultConfig(), cols: len(r.bins), offsets: offsets, scheme: r.dec, codec: r.codec,
		plan: r.planFor(packing), stats: &Stats{}, units: make(unitQueue, 2)}
	var err error
	if p.shiftCt, err = r.dec.Encrypt(r.plan.shift); err != nil {
		t.Fatal(err)
	}
	nh, err := p.wireHist(nil, rootID, eh)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.stats.packedCts.Load(); got != int64(len(nh.Cts)) {
		t.Fatalf("stats count %d packed ciphertexts, the frame ships %d", got, len(nh.Cts))
	}
	return nh
}

// active is a Party B over the rig's key.
func (r *layoutRig) active(packing bool) *activeParty {
	cfg := quickConfig(SchemeMock)
	cfg.Workers = 2
	return &activeParty{cfg: cfg, dec: r.dec, codec: r.codec, pairs: r.pairs,
		plan: r.planFor(packing), featCounts: []int{len(r.bins)}, units: make(unitQueue, 2)}
}

// want are the integers both plans must decrypt to: each bin's cells
// summed at the plan's exponent.
func (r *layoutRig) want() nodeSums {
	out := make(nodeSums, len(r.bins))
	for j, feat := range r.bins {
		fs := newFeatSums(len(feat))
		for k, cells := range feat {
			for _, c := range cells {
				if fs.g[k] == nil {
					fs.g[k], fs.h[k], fs.exp[k] = new(big.Int), new(big.Int), r.plan.exp
				}
				scale := new(big.Int).Exp(big.NewInt(int64(r.codec.Base())), big.NewInt(int64(r.plan.exp-c.exp)), nil)
				fs.g[k].Add(fs.g[k], new(big.Int).Mul(c.g, scale))
				fs.h[k].Add(fs.h[k], new(big.Int).Mul(c.h, scale))
			}
		}
		out[j] = fs
	}
	return out
}

// randomBins fills the rig with the given shape: every bin is occupied
// with probability fill, by one to three cells at random exponents whose
// fields, scaled to the plan's exponent, keep every prefix of the feature
// inside W−1 bits.
func (r *layoutRig) randomBins(rng *rand.Rand, shape []int, fill float64) {
	r.bins = make([][][]cell, len(shape))
	for j, numBins := range shape {
		r.bins[j] = make([][]cell, numBins)
		room := new(big.Int).Lsh(big.NewInt(1), uint(r.pairs.W-1))
		room.Div(room, big.NewInt(int64(3*numBins+1)))
		for k := range r.bins[j] {
			if rng.Float64() >= fill {
				continue
			}
			for n := 1 + rng.Intn(3); n > 0; n-- {
				exp := r.codec.BaseExp() + rng.Intn(r.codec.ExpSpread())
				scale := new(big.Int).Exp(big.NewInt(int64(r.codec.Base())), big.NewInt(int64(r.plan.exp-exp)), nil)
				limit := new(big.Int).Div(room, scale)
				g := new(big.Int).Rand(rng, limit)
				if rng.Intn(2) == 0 {
					g.Neg(g)
				}
				r.bins[j][k] = append(r.bins[j][k], cell{exp, g, new(big.Int).Rand(rng, limit)})
			}
		}
	}
}

// checkLayout ships r.bins packed and at one slot per ciphertext, under
// both accumulation strategies, and compares what B decrypts with the
// integers the test put in. It reports where the chunk boundaries of the
// packed frames fell.
func (r *layoutRig) checkLayout(t *testing.T) (insideFeature, onFeature bool) {
	t.Helper()
	want := r.want()
	for _, reordered := range []bool{true, false} {
		for _, packing := range []bool{false, true} {
			plan := r.planFor(packing)
			nh := r.wire(t, packing, reordered)
			decryptions := r.codec.Stats().Decryptions()
			got, err := r.active(packing).unpackNode(0, nh)
			decryptions = r.codec.Stats().Decryptions() - decryptions
			if err != nil {
				t.Fatalf("reordered=%v packing=%v: %v", reordered, packing, err)
			}
			if err := sameSums(r.codec.Base(), got, want); err != nil {
				t.Errorf("reordered=%v packing=%v: node layout vs the integers put in: %v", reordered, packing, err)
			}
			slots := 0
			for j, fs := range got {
				for k := range fs.g {
					// The bitmap names exactly the bins with mass.
					if occupied := want[j].g[k] != nil; (fs.g[k] != nil) != occupied {
						t.Errorf("reordered=%v packing=%v: feature %d bin %d slotted=%v, occupied=%v", reordered, packing, j, k, fs.g[k] != nil, occupied)
					}
					if fs.g[k] != nil {
						slots++
						if fs.exp[k] != plan.exp {
							t.Errorf("feature %d bin %d at exponent %d, want the plan's %d", j, k, fs.exp[k], plan.exp)
						}
					}
				}
			}
			if want := plan.chunks(slots); len(nh.Cts) != want || decryptions != int64(want) {
				t.Errorf("reordered=%v packing=%v: %d ciphertexts and %d decryptions for %d slots, want %d", reordered, packing, len(nh.Cts), decryptions, slots, want)
			}
			if !reordered || !packing {
				continue
			}
			ends := map[int]bool{} // slot indices at which a feature ends
			end := 0
			for _, fs := range got {
				for k := range fs.g {
					if fs.g[k] != nil {
						end++
					}
				}
				ends[end] = true
			}
			for c := 0; c+1 < len(nh.Cts); c++ {
				_, hi := plan.chunk(slots, c)
				insideFeature = insideFeature || !ends[hi]
				onFeature = onFeature || ends[hi]
			}
		}
	}
	return insideFeature, onFeature
}

// TestNodeLayoutRoundTrip is the layout property: pack → decrypt → slice
// equals the integers put in, packed and at one slot per ciphertext, over
// mock and 512-bit Paillier, one and four exponents, both
// accumulation strategies, one to four features, occupancy from empty to
// full (fill 1: every bitmap full), and chunk boundaries inside features
// and exactly between them.
func TestNodeLayoutRoundTrip(t *testing.T) {
	pcfg := quickConfig(SchemePaillier)
	for _, tc := range []struct {
		name string
		dec  he.Decryptor
	}{{"mock", he.NewMock(512)}, {"paillier", sibDecryptor(t, pcfg)}} {
		for _, spread := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/spread=%d", tc.name, spread), func(t *testing.T) {
				r := newLayoutRig(t, tc.dec, spread)
				capacity := r.plan.capacity
				if capacity < 2 {
					t.Fatalf("test premise broken: %d slots per ciphertext", capacity)
				}
				rng := rand.New(rand.NewSource(int64(17 + spread)))
				var inside, on bool
				for _, shape := range [][]int{
					{5}, {capacity}, {capacity, capacity}, {capacity + 1, capacity - 1, 3},
					{2, 9, 1, 6}, {1, 1, 1, 1}, {capacity * 3}, {7, capacity*2 - 7},
				} {
					for _, fill := range []float64{1, 0.3, 0} {
						r.randomBins(rng, shape, fill)
						in, at := r.checkLayout(t)
						inside, on = inside || in, on || at
					}
					// One occupied bin in the whole node.
					r.randomBins(rng, shape, 0)
					j := rng.Intn(len(shape))
					r.bins[j][rng.Intn(shape[j])] = []cell{{r.plan.exp, big.NewInt(-5), big.NewInt(3)}}
					r.checkLayout(t)
				}
				if !inside || !on {
					t.Errorf("test premise broken: chunk boundary inside a feature %v, exactly between two %v", inside, on)
				}

				// Fields at the W−1-bit limit: a prefix with ΣG at its negative
				// extreme and ΣH at its maximum, then one at the positive one.
				top := new(big.Int).Lsh(big.NewInt(1), uint(r.pairs.W-1))
				top.Sub(top, big.NewInt(1))
				r.bins = [][][]cell{
					{{{r.plan.exp, new(big.Int).Neg(top), top}}, nil, {{r.plan.exp, top, big.NewInt(0)}}},
					{nil, {{r.plan.exp, top, big.NewInt(0)}}},
				}
				r.checkLayout(t)
			})
		}
	}
}

// TestPackedDecryptionsFollowOccupiedBins: Party B decrypts exactly the
// ciphertexts the chunk rule yields for the bins that hold an instance. A
// root's count follows from the data alone; below it, on sparse data that
// leaves most bins of a small node empty, every shipped ciphertext is
// decrypted once and carries at most t slots.
func TestPackedDecryptionsFollowOccupiedBins(t *testing.T) {
	const rows = 300
	_, parts := twoPartyData(t, rows, 30, 4, 0.05, false, 43)
	cfg := quickConfig(SchemePaillier)
	cfg.Trees, cfg.OptimisticSplit = 1, false // every shipped node is decrypted

	mapper, err := gbdt.NewBinMapper(parts[0], cfg.MaxBins)
	if err != nil {
		t.Fatal(err)
	}
	bm := gbdt.NewBinnedMatrix(parts[0], mapper)
	seen := map[[2]int32]bool{}
	for i := 0; i < rows; i++ {
		cols, bins, err := bm.Row(i)
		if err != nil {
			t.Fatal(err)
		}
		for k, j := range cols {
			seen[[2]int32{j, int32(bins[k])}] = true
		}
	}
	codec := fixedpoint.NewCodec(testDecryptor(t), fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread))
	pairs, err := codec.PlanPairs(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planPacking(codec, pairs.W, true)
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxDepth = 1 // the root is the one histogram of the session
	_, s := trainFed(t, parts, cfg)
	if got, want := s.Crypto().Decryptions(), int64(plan.chunks(len(seen))); got != want {
		t.Errorf("%d decryptions for a root of %d occupied bins at %d per ciphertext, want %d", got, len(seen), plan.capacity, want)
	}
	cfg.MaxDepth = 3
	_, s = trainFed(t, parts, cfg)
	st := s.Stats()
	if d := s.Crypto().Decryptions(); d != st.packedCts.Load() || st.PackFill() > float64(plan.capacity) {
		t.Errorf("%d decryptions of %d shipped ciphertexts, %.2f slots each", d, st.packedCts.Load(), st.PackFill())
	}
}

// TestMergeScalesEachRowOnce pins the pack path's exponent merge: a bin
// costs one scaling per occupied workspace row below the plan's exponent,
// not a merge to its own top row and a second scaling of the result.
func TestMergeScalesEachRowOnce(t *testing.T) {
	r := newLayoutRig(t, he.NewMock(512), 4)
	one := func(exp int) cell { return cell{exp, big.NewInt(1), big.NewInt(1)} }
	// Rows {8, 9}, {11}, {8, 10, 11}, {10}: 2 + 0 + 2 + 1 rows below 11.
	r.bins = [][][]cell{{{one(8), one(9)}, {one(11)}, nil, {one(8), one(10), one(11)}, {one(10)}}}
	before := r.codec.Stats().Scalings()
	r.wire(t, true, true)
	if got := r.codec.Stats().Scalings() - before; got != 5 {
		t.Errorf("packing used %d scalings, want 5", got)
	}
}

// hostileNode is a well-formed node-layout frame of two features — 5 bins
// with bins 0, 2, 3 occupied and 9 bins with 1, 7, 8 — that a case then
// breaks. With four slots per ciphertext its six slots ship as 3 + 3.
func hostileNode(t *testing.T, r *layoutRig) NodeHist {
	one := []cell{{r.plan.exp, big.NewInt(-2), big.NewInt(1)}}
	r.bins = [][][]cell{{one, nil, one, one, nil}, {nil, one, nil, nil, nil, nil, nil, one, one}}
	return r.wire(t, true, true)
}

// TestActiveRejectsHostilePackedFrames is the hostile-frame table of the
// node layout: every way a frame can contradict itself or the session's
// plan, and the retired two-ciphertext frame, ends B's session with the
// typed error after B told every party why, and never sizes or indexes
// anything from the frame.
func TestActiveRejectsHostilePackedFrames(t *testing.T) {
	lr := newLayoutRig(t, he.NewMock(512), 4)
	if lr.plan.capacity != 4 {
		t.Fatalf("test premise broken: %d slots per ciphertext, want 4", lr.plan.capacity)
	}
	encrypt := func(m *big.Int) []byte {
		ct, err := lr.dec.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		return lr.dec.Marshal(ct)
	}
	slotBits := uint(lr.plan.bits)
	for _, tc := range []struct {
		name    string
		packing bool
		mutate  func(nh *NodeHist)
		legacy  bool
	}{
		{"bitmap shorter than its bins", true, func(nh *NodeHist) { nh.Feats[1].Occupied = nh.Feats[1].Occupied[:1] }, false},
		{"bitmap longer than its bins", true, func(nh *NodeHist) { nh.Feats[0].Occupied = append(nh.Feats[0].Occupied, 0) }, false},
		{"bits set beyond the bins", true, func(nh *NodeHist) { nh.Feats[0].Occupied[0] |= 1 << 6 }, false},
		{"more bits than the ciphertexts hold", true, func(nh *NodeHist) {
			nh.Feats[1].Occupied[0] = 0xFF // 12 slots need 3 ciphertexts
		}, false},
		{"fewer bits than the ciphertexts hold", true, func(nh *NodeHist) {
			nh.Feats[0].Occupied[0], nh.Feats[1].Occupied[0] = 1, 0 // 2 slots need 1
		}, false},
		{"a ciphertext too many", true, func(nh *NodeHist) { nh.Cts = append(nh.Cts, nh.Cts[0]) }, false},
		{"a ciphertext too few", true, func(nh *NodeHist) { nh.Cts = nh.Cts[:1] }, false},
		{"zero slots with ciphertexts", true, func(nh *NodeHist) {
			nh.Feats[0].Occupied, nh.Feats[1].Occupied = []byte{0}, []byte{0, 0}
		}, false},
		{"plaintext above a short last chunk", true, func(nh *NodeHist) {
			// Five slots ship as 3 + 2; the old three-slot ciphertext overhangs.
			nh.Feats[1].Occupied[1] = 0
		}, false},
		{"a slot beyond its 2W bits", true, func(nh *NodeHist) {
			nh.Cts[1] = encrypt(new(big.Int).Lsh(big.NewInt(1), 3*slotBits))
		}, false},
		{"bin count beyond MaxBins", true, func(nh *NodeHist) {
			nh.Feats[0].NumBins, nh.Feats[0].Occupied = 1<<40, make([]byte, 1<<10)
		}, false},
		{"negative bin count", true, func(nh *NodeHist) { nh.Feats[0].NumBins = -3 }, false},
		{"feature count other than announced", true, func(nh *NodeHist) { nh.Feats = nh.Feats[:1] }, false},
		// Six slots packed 3 + 3 where the session ships one per ciphertext.
		{"node layout without negotiated packing", false, func(nh *NodeHist) {}, false},
		// The retired two-ciphertext frame (wire id 4), per-feature packed
		// or not, in either session.
		{"per-feature packed frame in a packing session", true, func(nh *NodeHist) {
			*nh = NodeHist{Node: nh.Node, Feats: []FeatHist{{NumBins: 5, Packed: true, PackedG: nh.Cts[:1], PackedH: nh.Cts[:1]}, {NumBins: 9, Packed: true, PackedG: nh.Cts[1:], PackedH: nh.Cts[1:]}}}
		}, true},
		{"unpacked frame in a packing session", true, func(nh *NodeHist) {
			*nh = NodeHist{Node: nh.Node, Feats: []FeatHist{{NumBins: 1}, {NumBins: 1}}}
		}, true},
		{"per-feature packed frame without packing", false, func(nh *NodeHist) {
			*nh = NodeHist{Node: nh.Node, Feats: []FeatHist{{NumBins: 5, Packed: true, PackedG: nh.Cts[:1], PackedH: nh.Cts[:1]}, {NumBins: 9, Packed: true, PackedG: nh.Cts[1:], PackedH: nh.Cts[1:]}}}
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSiblingRig(t)
			b := r.b
			b.dec, b.codec, b.pairs, b.plan = lr.dec, lr.codec, lr.pairs, lr.planFor(tc.packing)
			b.featCounts = []int{2}
			nh := hostileNode(t, lr)
			if tc.packing {
				// The frame is good before the case breaks it.
				if _, err := b.unpackNode(0, nh); err != nil {
					t.Fatalf("well-formed frame: %v", err)
				}
			}
			tc.mutate(&nh)
			// Through the wire, as a peer's frame arrives: the refusal must
			// not depend on fields only an in-process caller could set.
			frame, err := (MsgHistograms{Nodes: []NodeHist{nh}}).roundTrip()
			if err != nil {
				t.Fatal(err)
			}
			b.inboxes[0].file(frame, nil)
			_, err = b.passiveSums(0, 0, &bNode{id: rootID})
			if err == nil {
				t.Fatal("hostile frame accepted")
			}
			if errors.Is(err, ErrLegacyLayout) != tc.legacy || errors.Is(err, ErrPackedLayout) == tc.legacy {
				t.Errorf("error %q: want ErrLegacyLayout=%v, ErrPackedLayout=%v", err, tc.legacy, !tc.legacy)
			}
			if len(r.sent.ch) != 1 {
				t.Fatalf("B sent the peer %d frames, want one MsgAbort", len(r.sent.ch))
			}
			got, rerr := NewLink(r.sent).recv()
			if ab, ok := got.(MsgAbort); rerr != nil || !ok || ab.Reason != err.Error() {
				t.Errorf("B sent %#v (%v), want MsgAbort{%q}", got, rerr, err)
			}
		})
	}
}

// roundTrip passes a histogram message through the binary codec.
func (m MsgHistograms) roundTrip() (MsgHistograms, error) {
	tr := chanTransport{ch: make(chan []byte, 1)}
	l := NewLink(tr)
	if err := l.send(m); err != nil {
		return MsgHistograms{}, err
	}
	got, err := l.recv()
	if err != nil {
		return MsgHistograms{}, err
	}
	return got.(MsgHistograms), nil
}

// TestPackedChildMustMatchParentBins: under sibling derivation the shipped
// child's bitmap-declared bin counts are checked against the parent's.
func TestPackedChildMustMatchParentBins(t *testing.T) {
	lr := newLayoutRig(t, he.NewMock(512), 4)
	r := newSiblingRig(t)
	b := r.b
	b.dec, b.codec, b.pairs, b.plan = lr.dec, lr.codec, lr.pairs, lr.plan
	one := []cell{{lr.plan.exp, big.NewInt(-2), big.NewInt(5)}}
	lr.bins = [][][]cell{{one, one, nil}}
	root := lr.wire(t, true, true)
	lr.bins = [][][]cell{{one, nil, nil, nil}}
	child := lr.wire(t, true, true)
	child.Node, child.Parent, child.Sibling = 2, rootID, 3
	b.inboxes[0].file(MsgHistograms{Nodes: []NodeHist{root}}, nil)
	b.inboxes[0].file(MsgHistograms{Layer: 1, Nodes: []NodeHist{child}}, nil)
	if _, err := b.passiveSums(0, 0, &bNode{id: rootID}); err != nil {
		t.Fatal(err)
	}
	_, err := b.passiveSums(0, 0, &bNode{id: 3, parent: rootID, sibling: 2, derived: true})
	if !errors.Is(err, ErrSiblingDerivation) {
		t.Fatalf("child with 4 bins under a 3-bin parent: %v, want ErrSiblingDerivation", err)
	}
	if len(r.sent.ch) != 1 {
		t.Fatalf("B sent the peer %d frames, want one MsgAbort", len(r.sent.ch))
	}
}
