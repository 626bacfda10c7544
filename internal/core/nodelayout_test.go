package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/wire"
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

// shipped is a node as it crossed the link: its header and its chunk
// ciphertexts by index.
type shipped struct {
	head NodeHist
	cts  [][]byte
}

// frames are the node's frames in link order under tree 0: the header,
// then its ciphertexts.
func (s shipped) frames() []any {
	out := []any{MsgHistograms{Nodes: []NodeHist{s.head}}}
	for c, ct := range s.cts {
		out = append(out, MsgHistCt{Node: s.head.Node, Index: c, Ct: ct})
	}
	return out
}

// captured reads back everything a party sent on a capturing link: the
// header and ciphertext frames of one node.
func captured(t *testing.T, sent chanTransport) shipped {
	t.Helper()
	var s shipped
	for len(sent.ch) > 0 {
		m, err := NewLink(sent).recv()
		if err != nil {
			t.Fatal(err)
		}
		switch m := m.(type) {
		case MsgHistograms:
			s.head = m.Nodes[0]
		case MsgHistCt:
			for len(s.cts) <= m.Index {
				s.cts = append(s.cts, nil)
			}
			s.cts[m.Index] = m.Ct
		default:
			t.Fatalf("party sent %T", m)
		}
	}
	return s
}

// fileFrames passes frames (MsgX values, or raw []byte frames) through
// the binary codec into an inbox, as the inbox's reader does with a peer's
// frames.
func fileFrames(t *testing.T, in *inbox, frames ...any) {
	t.Helper()
	tr := chanTransport{ch: make(chan []byte, 1)}
	l := NewLink(tr)
	for _, f := range frames {
		if raw, ok := f.([]byte); ok {
			tr.ch <- raw
		} else if err := l.send(f); err != nil {
			t.Fatal(err)
		}
		in.file(l.recv())
	}
}

// unpackShipped files a node's frames in a fresh inbox of party 0 and
// decrypts it as fetchSums does once the header is in.
func (b *activeParty) unpackShipped(t *testing.T, s shipped) (nodeSums, error) {
	t.Helper()
	b.inboxes = []*inbox{newInbox(b.plan)}
	if b.stats == nil {
		b.stats = &Stats{}
	}
	fileFrames(t, b.inboxes[0], s.frames()...)
	return b.unpackNode(0, 0, s.head)
}

// wire builds the histogram from r.bins and ships it through a passive
// party's wireHist, packed or at one slot per ciphertext.
func (r *layoutRig) wire(t *testing.T, packing, reordered bool) shipped {
	t.Helper()
	offsets := []int{0}
	for _, feat := range r.bins {
		offsets = append(offsets, offsets[len(offsets)-1]+len(feat))
	}
	sent := chanTransport{ch: make(chan []byte, 4096)}
	cfg := DefaultConfig()
	cfg.ReorderedAccumulation = reordered
	p := &passiveParty{cfg: cfg, cols: len(r.bins), offsets: offsets, scheme: r.dec, codec: r.codec,
		plan: r.planFor(packing), stats: &Stats{}, units: make(unitQueue, 2), link: NewLink(sent)}
	hist := p.newHist()
	for j, feat := range r.bins {
		for k, cells := range feat {
			for _, c := range cells {
				man := new(big.Int).Lsh(c.g, uint(r.pairs.W))
				man.Add(man, c.h).Mod(man, r.dec.N())
				ct, err := r.dec.Encrypt(man)
				if err != nil {
					t.Fatal(err)
				}
				hist.Add(offsets[j]+k, fixedpoint.EncNum{Exp: c.exp, Ct: ct})
			}
		}
	}
	var err error
	if p.shiftCt, err = r.dec.Encrypt(r.plan.shift); err != nil {
		t.Fatal(err)
	}
	if err := p.wireHist(nil, 0, 0, NodeHist{Node: rootID}, hist); err != nil {
		t.Fatal(err)
	}
	s := captured(t, sent)
	if got := p.stats.packedCts.Load(); got != int64(len(s.cts)) {
		t.Fatalf("stats count %d packed ciphertexts, the party shipped %d", got, len(s.cts))
	}
	return s
}

// active is a Party B over the rig's key.
func (r *layoutRig) active(packing bool) *activeParty {
	cfg := quickConfig(SchemeMock)
	cfg.Workers = 2
	return &activeParty{cfg: cfg, dec: r.dec, codec: r.codec, pairs: r.pairs,
		plan: r.planFor(packing), featCounts: []int{len(r.bins)}, units: make(unitQueue, 2), stats: &Stats{}}
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
					fs.g[k], fs.h[k] = new(big.Int), new(big.Int)
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
			got, err := r.active(packing).unpackShipped(t, nh)
			decryptions = r.codec.Stats().Decryptions() - decryptions
			if err != nil {
				t.Fatalf("reordered=%v packing=%v: %v", reordered, packing, err)
			}
			if err := sameSums(got, want); err != nil {
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
					}
				}
			}
			if want := plan.chunks(slots); len(nh.cts) != want || decryptions != int64(want) {
				t.Errorf("reordered=%v packing=%v: %d ciphertexts and %d decryptions for %d slots, want %d", reordered, packing, len(nh.cts), decryptions, slots, want)
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
			for c := 0; c+1 < len(nh.cts); c++ {
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

// hostileNode is a well-formed node of two features — 5 bins with bins 0,
// 2, 3 occupied and 9 bins with 1, 7, 8 — that a case then breaks. With
// four slots per ciphertext its six slots ship as 3 + 3.
func hostileNode(t *testing.T, r *layoutRig) shipped {
	one := []cell{{r.plan.exp, big.NewInt(-2), big.NewInt(1)}}
	r.bins = [][][]cell{{one, nil, one, one, nil}, {nil, one, nil, nil, nil, nil, nil, one, one}}
	return r.wire(t, true, true)
}

// TestActiveRejectsHostilePackedFrames is the hostile-frame table of the
// node layout: every way a node's header and ciphertext frames can
// contradict themselves, their order or the session's plan, and the
// retired layouts, ends B's session with the typed error after B told
// every party why, and never sizes or indexes anything from the frames,
// waits forever, or leaves a goroutine behind.
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
	// retire turns the node into the retired two-ciphertext frame (wire id
	// 4), which carries its ciphertexts itself.
	retire := func(feats ...FeatHist) func(s *shipped) {
		return func(s *shipped) { s.head, s.cts = NodeHist{Node: s.head.Node, Feats: feats}, nil }
	}
	perFeature := func(s *shipped) {
		retire(FeatHist{NumBins: 5, Packed: true, PackedG: s.cts[:1], PackedH: s.cts[:1]},
			FeatHist{NumBins: 9, Packed: true, PackedG: s.cts[1:], PackedH: s.cts[1:]})(s)
	}
	ct := func(tree, index int, raw []byte) MsgHistCt {
		return MsgHistCt{Tree: tree, Node: rootID, Index: index, Ct: raw}
	}
	for _, tc := range []struct {
		name    string
		packing bool
		mutate  func(s *shipped)
		frames  func(s shipped) []any // nil: header, then ciphertexts in order
		legacy  bool
	}{
		{"bitmap shorter than its bins", true, func(s *shipped) { s.head.Feats[1].Occupied = s.head.Feats[1].Occupied[:1] }, nil, false},
		{"bitmap longer than its bins", true, func(s *shipped) { s.head.Feats[0].Occupied = append(s.head.Feats[0].Occupied, 0) }, nil, false},
		{"bits set beyond the bins", true, func(s *shipped) { s.head.Feats[0].Occupied[0] |= 1 << 6 }, nil, false},
		{"fewer bits than the ciphertexts hold", true, func(s *shipped) {
			s.head.Feats[0].Occupied[0], s.head.Feats[1].Occupied[0] = 1, 0 // 2 slots need 1
		}, nil, false},
		{"a ciphertext too many", true, func(s *shipped) { s.cts = append(s.cts, s.cts[0]) }, nil, false},
		{"an index beyond the chunk count", true, nil, func(s shipped) []any {
			return []any{s.frames()[0], ct(0, 0, s.cts[0]), ct(0, 7, s.cts[1])}
		}, false},
		{"a negative index", true, nil, func(s shipped) []any {
			return []any{s.frames()[0], ct(0, -1, s.cts[0])}
		}, false},
		{"a ciphertext frame before its header", true, nil, func(s shipped) []any {
			f := s.frames()
			return []any{f[1], f[0], f[2]}
		}, false},
		{"a duplicate index", true, nil, func(s shipped) []any {
			f := s.frames()
			return append(f, f[1])
		}, false},
		{"a ciphertext tagged with another tree", true, nil, func(s shipped) []any {
			return []any{s.frames()[0], ct(0, 0, s.cts[0]), ct(5, 1, s.cts[1])}
		}, false},
		{"zero slots with ciphertexts", true, func(s *shipped) {
			s.head.Feats[0].Occupied, s.head.Feats[1].Occupied = []byte{0}, []byte{0, 0}
		}, nil, false},
		{"plaintext above a short last chunk", true, func(s *shipped) {
			// Five slots ship as 3 + 2; the old three-slot ciphertext overhangs.
			s.head.Feats[1].Occupied[1] = 0
		}, nil, false},
		{"a slot beyond its 2W bits", true, func(s *shipped) {
			s.cts[1] = encrypt(new(big.Int).Lsh(big.NewInt(1), 3*slotBits))
		}, nil, false},
		// B must not wait for the withheld rest of a node it refuses: the
		// unit that claims chunk 0 waits for it while chunk 1 fails.
		{"a bad chunk, the rest withheld", true, func(s *shipped) {
			s.cts[1] = encrypt(new(big.Int).Lsh(big.NewInt(1), 3*slotBits))
		}, func(s shipped) []any { f := s.frames(); return []any{f[0], f[2]} }, false},
		{"a ciphertext outside the ciphertext space", true, func(s *shipped) {
			s.cts[0] = new(big.Int).Lsh(big.NewInt(1), 600).Bytes()
		}, nil, false},
		{"bin count beyond MaxBins", true, func(s *shipped) {
			s.head.Feats[0].NumBins, s.head.Feats[0].Occupied = 1<<40, make([]byte, 1<<10)
		}, nil, false},
		{"negative bin count", true, func(s *shipped) { s.head.Feats[0].NumBins = -3 }, nil, false},
		{"feature count other than announced", true, func(s *shipped) { s.head.Feats = s.head.Feats[:1] }, nil, false},
		// Six slots packed 3 + 3 where the session ships one per ciphertext.
		{"node layout without negotiated packing", false, func(s *shipped) {}, nil, false},
		// The retired one-frame node layout: an id-33 frame carrying the
		// node's ciphertexts itself.
		{"header carrying its ciphertexts", true, nil, func(s shipped) []any {
			return []any{oneFrameNode(s)}
		}, true},
		// The retired two-ciphertext frame (wire id 4), per-feature packed
		// or not, in either session.
		{"per-feature packed frame in a packing session", true, perFeature, nil, true},
		{"unpacked frame in a packing session", true, retire(FeatHist{NumBins: 1}, FeatHist{NumBins: 1}), nil, true},
		{"per-feature packed frame without packing", false, perFeature, nil, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			r := newSiblingRig(t)
			b := r.b
			b.dec, b.codec, b.pairs, b.plan = lr.dec, lr.codec, lr.pairs, lr.planFor(tc.packing)
			b.featCounts, b.units = []int{2}, make(unitQueue, 2) // two chunks awaited at once
			node := hostileNode(t, lr)
			if tc.packing {
				// The node is good before the case breaks it.
				if _, err := b.unpackShipped(t, node); err != nil {
					t.Fatalf("well-formed node: %v", err)
				}
			}
			b.inboxes = []*inbox{newInbox(b.plan)}
			if tc.mutate != nil {
				tc.mutate(&node)
			}
			frames := node.frames()
			if tc.frames != nil {
				frames = tc.frames(node)
			}
			// Through the wire, as a peer's frames arrive: the refusal must
			// not depend on fields only an in-process caller could set.
			fileFrames(t, b.inboxes[0], frames...)
			err := withinSeconds(t, 10, func() error {
				_, err := b.passiveSums(0, 0, &bNode{id: rootID})
				return err
			})
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
			settleGoroutines(t, baseline)
		})
	}
}

// oneFrameNode is a node in the retired one-frame layout: the id-33 body
// with the node's ciphertexts in the header.
func oneFrameNode(s shipped) []byte {
	b := wire.AppendInt(nil, 0) // Tree
	b = wire.AppendInt(b, 0)    // Layer
	b = wire.AppendUvarint(b, 1)
	b = wire.AppendInt32(b, s.head.Node)
	b = wire.AppendInt32(b, s.head.Parent)
	b = wire.AppendInt32(b, s.head.Sibling)
	b = wire.AppendByteSlices(b, s.cts)
	b = wire.AppendUvarint(b, uint64(len(s.head.Feats)))
	for _, f := range s.head.Feats {
		b = wire.AppendInt(b, f.NumBins)
		b = wire.AppendBytes(b, f.Occupied)
	}
	return rawFrame(idHistogramsV5, b)
}

// withinSeconds runs f and returns its error, failing the test if f is
// still running after the given seconds.
func withinSeconds(t *testing.T, secs int, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(time.Duration(secs) * time.Second):
		t.Fatalf("still waiting after %ds", secs)
		return nil
	}
}

// settleGoroutines fails the test unless the goroutine count falls back to
// baseline within a few seconds.
func settleGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestActiveStreamedNodeFaults: a link that drops after a node's header
// and part of its ciphertexts, and the peer's MsgAbort mid-node, end B's
// wait with the failure itself — not a layout refusal — without a hang
// and with every goroutine gone; ciphertexts that arrive in reverse order
// decrypt to the sums of an in-order node.
func TestActiveStreamedNodeFaults(t *testing.T) {
	lr := newLayoutRig(t, he.NewMock(512), 4)
	node := hostileNode(t, lr)
	b := lr.active(true)
	want, err := b.unpackShipped(t, node)
	if err != nil {
		t.Fatal(err)
	}

	b.inboxes = []*inbox{newInbox(b.plan)}
	f := node.frames()
	fileFrames(t, b.inboxes[0], f[0], f[2], f[1])
	got, err := b.unpackNode(0, 0, node.head)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameSums(got, want); err != nil {
		t.Errorf("ciphertexts in reverse order: %v", err)
	}

	dropped := errors.New("link dropped")
	for _, tc := range []struct {
		name  string
		last  func(in *inbox)
		match func(error) bool
	}{
		{"link dropped mid-node", func(in *inbox) { in.file(nil, dropped) }, func(err error) bool { return errors.Is(err, dropped) }},
		{"peer abort mid-node", func(in *inbox) { fileFrames(t, in, MsgAbort{Party: 0, Reason: "disk gone"}) },
			func(err error) bool { return strings.Contains(err.Error(), "disk gone") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			r := newSiblingRig(t)
			b := r.b
			b.dec, b.codec, b.pairs, b.plan = lr.dec, lr.codec, lr.pairs, lr.plan
			b.featCounts = []int{2}
			b.inboxes = []*inbox{newInbox(b.plan)}
			in := b.inboxes[0]
			fileFrames(t, in, f[0], f[1])
			go func() {
				time.Sleep(50 * time.Millisecond) // a decryption unit is waiting for ciphertext 1
				tc.last(in)
			}()
			err := withinSeconds(t, 10, func() error {
				_, err := b.passiveSums(0, 0, &bNode{id: rootID})
				return err
			})
			if err == nil || !tc.match(err) || errors.Is(err, ErrPackedLayout) {
				t.Errorf("B's wait ended with %v, want the failure itself", err)
			}
			if len(r.sent.ch) != 0 {
				t.Errorf("B answered a failed link with %d frames", len(r.sent.ch))
			}
			settleGoroutines(t, baseline)
		})
	}
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
	child.head.Node, child.head.Parent, child.head.Sibling = 2, rootID, 3
	b.inboxes = []*inbox{newInbox(b.plan)}
	fileFrames(t, b.inboxes[0], root.frames()...)
	fileFrames(t, b.inboxes[0], child.frames()...)
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

// histTamper is a passive party's end of a link that hands every
// ciphertext frame it sends to tamper and sends what tamper returns in its
// place.
type histTamper struct {
	*chanEnd
	tamper func(MsgHistCt) []MsgHistCt
}

func (c histTamper) Send(p []byte) error {
	m, err := wire.Binary.Decode(p)
	ct, ok := m.(MsgHistCt)
	if err != nil || !ok {
		return c.chanEnd.Send(p)
	}
	for _, out := range c.tamper(ct) {
		q, err := wire.Binary.Encode(out)
		if err != nil {
			return err
		}
		if err := c.chanEnd.Send(q); err != nil {
			return err
		}
	}
	return nil
}

// TestStreamedNodeFaultsEndSession: in a whole session, with B
// prefetching a layer's nodes, a duplicated ciphertext frame or an index
// beyond its header ends B with ErrPackedLayout after it told the passive
// party why, and a link that drops mid-node ends B with the link's own
// error; neither hangs, and every goroutine is gone once the parties
// return.
func TestStreamedNodeFaultsEndSession(t *testing.T) {
	_, parts := twoPartyData(t, 300, 8, 4, 1, true, 23)
	child := func(ct MsgHistCt) bool { return ct.Node != rootID && ct.Index == 1 }
	for _, tc := range []struct {
		name   string
		tamper func(b *chanEnd) func(MsgHistCt) []MsgHistCt
		layout bool
	}{
		{"duplicate ciphertext", func(*chanEnd) func(MsgHistCt) []MsgHistCt {
			return func(ct MsgHistCt) []MsgHistCt {
				if child(ct) {
					return []MsgHistCt{ct, ct}
				}
				return []MsgHistCt{ct}
			}
		}, true},
		{"index beyond its header", func(*chanEnd) func(MsgHistCt) []MsgHistCt {
			return func(ct MsgHistCt) []MsgHistCt {
				if child(ct) {
					ct.Index += 1000
				}
				return []MsgHistCt{ct}
			}
		}, true},
		{"link dropped mid-node", func(b *chanEnd) func(MsgHistCt) []MsgHistCt {
			return func(ct MsgHistCt) []MsgHistCt {
				if child(ct) {
					b.Close()
					return nil
				}
				return []MsgHistCt{ct}
			}
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			cfg := quickConfig(SchemeMock)
			views := testViews(t, cfg, parts...)
			a, b := newPipe()
			aErr, bErr := make(chan error, 1), make(chan error, 1)
			go func() {
				_, _, err := RunPassiveParty(0, views[0], cfg, histTamper{a, tc.tamper(b)})
				aErr <- err
			}()
			go func() {
				_, _, err := RunActiveParty(views[1], parts[1].Labels, cfg, []Transport{b})
				bErr <- err
			}()
			var err error
			select {
			case err = <-bErr:
			case <-time.After(10 * time.Second):
				t.Fatal("Party B still running 10 s after the fault")
			}
			if err == nil || errors.Is(err, ErrPackedLayout) != tc.layout || (!tc.layout && !errors.Is(err, errEndClosed)) {
				t.Fatalf("Party B returned %v, want ErrPackedLayout=%v", err, tc.layout)
			}
			if tc.layout {
				select {
				case pErr := <-aErr:
					if pErr == nil || !strings.Contains(pErr.Error(), err.Error()) {
						t.Errorf("passive party returned %v, want B's abort reason %q", pErr, err)
					}
				case <-time.After(10 * time.Second):
					t.Fatal("passive party still running 10 s after B aborted")
				}
			}
			a.Close()
			b.Close()
			if !tc.layout {
				<-aErr
			}
			settleGoroutines(t, baseline)
		})
	}
}

// frameRecorder is a passive party's end of a link that records the
// histogram headers and ciphertext frames it sends, and slows every
// ciphertext frame of a non-root node by delay.
type frameRecorder struct {
	*chanEnd
	delay time.Duration
	mu    sync.Mutex
	heads map[[2]int]NodeHist
	cts   map[[2]int]int
}

func (c *frameRecorder) Send(p []byte) error {
	m, err := wire.Binary.Decode(p)
	if err == nil {
		c.mu.Lock()
		switch m := m.(type) {
		case MsgHistograms:
			c.heads[[2]int{m.Tree, int(m.Nodes[0].Node)}] = m.Nodes[0]
		case MsgHistCt:
			c.cts[[2]int{m.Tree, int(m.Node)}]++
		}
		c.mu.Unlock()
		if ct, ok := m.(MsgHistCt); ok && ct.Node != rootID {
			time.Sleep(c.delay)
		}
	}
	return c.chanEnd.Send(p)
}

// TestAbortedStreamedTaskKeepsModel: in a speculating session whose
// passive party ships its ciphertexts slowly, corrections abort tentative
// children after their headers left, mid-node; the session trains the
// fragments of an undelayed run byte for byte.
func TestAbortedStreamedTaskKeepsModel(t *testing.T) {
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 41)
	cfg := mustNormalize(t, quickConfig(SchemeMock))
	cfg.Trees = 1
	run := func(delay time.Duration) (frags [2][]byte, cutShort int) {
		a, b := newPipe()
		defer a.Close()
		defer b.Close()
		rec := &frameRecorder{chanEnd: a, delay: delay, heads: map[[2]int]NodeHist{}, cts: map[[2]int]int{}}
		p := testPassive(t, parts[0], cfg, NewLink(rec))
		aDone := make(chan *PartyModel, 1)
		go func() {
			m, err := p.run()
			if err != nil {
				t.Error(err)
			}
			aDone <- m
		}()
		bm, _, err := RunActiveParty(testViews(t, cfg, parts[1])[0], parts[1].Labels, cfg, []Transport{b})
		if err != nil {
			t.Fatal(err)
		}
		am := <-aDone
		for i, m := range []*PartyModel{am, bm} {
			if frags[i], err = json.Marshal(m); err != nil {
				t.Fatal(err)
			}
		}
		for k, head := range rec.heads {
			if rec.cts[k] < p.plan.chunks(nodeSlots(head.Feats)) {
				cutShort++
			}
		}
		if cutShort > int(p.stats.AbortedTasks()) {
			t.Errorf("%d nodes stopped mid-node, %d tasks aborted", cutShort, p.stats.AbortedTasks())
		}
		return frags, cutShort
	}
	want, _ := run(0)
	// Whether a correction finds a task mid-node is the schedule's choice:
	// retry the slowed session until one does; every run must match.
	cutShort := 0
	for attempt := 0; attempt < 5 && cutShort == 0; attempt++ {
		var got [2][]byte
		got, cutShort = run(3 * time.Millisecond)
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("fragment %d differs after %d nodes were aborted mid-node", i, cutShort)
			}
		}
	}
	if cutShort == 0 {
		t.Fatal("test premise broken: no task was aborted after its header left in 5 runs")
	}
}
