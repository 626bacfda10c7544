package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"sync"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/he"
	"vf2boost/internal/paillier"
)

// sibKey caches the 512-bit key of the sibling-derivation matrix.
var (
	sibKeyOnce sync.Once
	sibKey     *paillier.PrivateKey
)

func sibDecryptor(t testing.TB, cfg Config) he.Decryptor {
	t.Helper()
	if cfg.Scheme == SchemeMock {
		dec, err := newDecryptor(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	sibKeyOnce.Do(func() {
		k, err := paillier.GenerateKey(rand.Reader, 512)
		if err != nil {
			t.Fatal(err)
		}
		sibKey = k
	})
	return he.NewPaillierFromKey(sibKey, 0)
}

// splitTreeSums drives one real passive engine and one real Party B
// through a hand-made two-level tree and returns B's integer histogram of
// every node. Root 1 splits into a two-instance node 2 and the rest (3);
// node 3 splits into every third of its instances (4) and the rest (5).
// Nodes 3 and 5 are derived on B — 5 from a parent that was itself
// derived. built holds what a derived node must equal: the histograms of
// 3 and 5 as the passive engine's own build path makes them from their
// instances, shipped and decrypted like any other node.
func splitTreeSums(t *testing.T, parts []*dataset.Dataset, cfg Config) (out, built map[int32]nodeSums) {
	t.Helper()
	cfg = mustNormalize(t, cfg)
	ab := chanTransport{ch: make(chan []byte, 1<<12)}
	ba := chanTransport{ch: make(chan []byte, 1<<12)}
	a := testPassive(t, parts[0], cfg, NewLink(pairTransport{send: ab.Send, recv: ba.Receive}))
	aDone := make(chan error, 1)
	go func() {
		_, err := a.run()
		aDone <- err
	}()
	b := testActive(t, parts[1], cfg, sibDecryptor(t, cfg), []*link{NewLink(pairTransport{send: ba.Send, recv: ab.Receive})})
	if err := b.setup(); err != nil {
		t.Fatal(err)
	}
	n := b.rows
	b.marginsAll = [][]float64{make([]float64, n)}
	b.gradsAll = [][]float64{make([]float64, n)}
	b.hessAll = [][]float64{make([]float64, n)}
	if err := cfg.Objective.GradHess(b.labels, b.marginsAll, b.gradsAll, b.hessAll); err != nil {
		t.Fatal(err)
	}
	b.grads, b.hess = b.gradsAll[0], b.hessAll[0]
	if err := b.sendGradients(0); err != nil {
		t.Fatal(err)
	}

	out = map[int32]nodeSums{}
	sums := func(nd *bNode) {
		s, err := b.passiveSums(0, 0, nd)
		if err != nil {
			t.Fatalf("node %d: %v", nd.id, err)
		}
		out[nd.id] = s
	}
	split := func(layer int, nd *bNode, leftID, rightID int32, goesLeft func(k int) bool) []*bNode {
		bits := make([]bool, len(nd.insts))
		for k := range bits {
			bits[k] = goesLeft(k)
		}
		bm := packBitmap(bits)
		err := b.links[0].send(MsgDecisions{Tree: 0, Layer: layer, Nodes: []NodeDecision{{
			Node: nd.id, Action: ActionSplitB, LeftID: leftID, RightID: rightID, Placement: bm, Count: len(nd.insts)}}})
		if err != nil {
			t.Fatal(err)
		}
		left, right, err := applyPlacement(nd.insts, bm)
		if err != nil {
			t.Fatal(err)
		}
		return b.childNodes(nd.id, leftID, left, rightID, right)
	}
	_, root := b.startTree()
	sums(root)
	kids := split(0, root, 2, 3, func(k int) bool { return k < 2 })
	// The derived node first: B must fetch its sibling out of turn.
	sums(kids[1])
	sums(kids[0])
	grand := split(1, kids[1], 4, 5, func(k int) bool { return k%3 == 0 })
	sums(grand[0])
	sums(grand[1])
	if !kids[1].derived || !grand[1].derived || kids[0].derived || grand[0].derived {
		t.Fatalf("derived flags: %v %v %v %v", kids[0].derived, kids[1].derived, grand[0].derived, grand[1].derived)
	}
	// The passive engine builds and ships the derived nodes after all;
	// B decrypts what arrives without looking at what it derived.
	for layer, nd := range []*bNode{kids[1], grand[1]} {
		a.scheduleHist(layer+1, NodeHist{Node: nd.id, Parent: nd.parent, Sibling: nd.sibling}, nd.insts)
	}
	a.startPasses()
	built = map[int32]nodeSums{}
	for _, nd := range []*bNode{kids[1], grand[1]} {
		s, err := b.fetchSums(0, 0, nd)
		if err != nil {
			t.Fatalf("built node %d: %v", nd.id, err)
		}
		built[nd.id] = s
	}
	if err := b.links[0].send(MsgShutdown{}); err != nil {
		t.Fatal(err)
	}
	if err := <-aDone; err != nil {
		t.Fatal(err)
	}
	return out, built
}

// sameSums compares two histograms bin by bin as exact integers, which
// sit at the plan's exponent on both sides. An empty bin equals a zero
// one: a derived bin whose mass all sits in its sibling is zero, not
// empty.
func sameSums(x, y nodeSums) error {
	if len(x) != len(y) {
		return fmt.Errorf("%d features vs %d", len(x), len(y))
	}
	orZero := func(v *big.Int) *big.Int {
		if v == nil {
			return new(big.Int)
		}
		return v
	}
	for j := range x {
		if len(x[j].g) != len(y[j].g) {
			return fmt.Errorf("feature %d: %d bins vs %d", j, len(x[j].g), len(y[j].g))
		}
		for k := range x[j].g {
			if orZero(x[j].g[k]).Cmp(orZero(y[j].g[k])) != 0 || orZero(x[j].h[k]).Cmp(orZero(y[j].h[k])) != 0 {
				return fmt.Errorf("feature %d bin %d: ⟨%v,%v⟩ vs ⟨%v,%v⟩", j, k, x[j].g[k], x[j].h[k], y[j].g[k], y[j].h[k])
			}
		}
	}
	return nil
}

// TestDerivedSiblingEqualsBuiltSibling: the integers B derives for the
// larger child of a split are the integers it decrypts when the passive
// party builds and ships that child — over both schemes; the packed node
// layout on data that fills every bin of the root and on sparse data that
// does not, and one slot per ciphertext; one and several exponents; and
// both accumulation strategies.
func TestDerivedSiblingEqualsBuiltSibling(t *testing.T) {
	_, sparse := twoPartyData(t, 120, 3, 2, 0.8, false, 81)
	_, dense := twoPartyData(t, 120, 3, 2, 1, true, 81)
	type shape struct {
		name   string
		parts  []*dataset.Dataset
		mutate func(*Config)
	}
	shapes := []shape{
		{"all-bins", dense, func(c *Config) {}},
		{"occupied-mask", sparse, func(c *Config) {}},
		{"unpacked", sparse, func(c *Config) { c.HistogramPacking = false }},
	}
	type sibCase struct {
		name  string
		parts []*dataset.Dataset
		cfg   Config
	}
	var cases []sibCase
	for _, scheme := range []string{SchemeMock, SchemePaillier} {
		for _, sh := range shapes {
			for _, spread := range []int{1, 4} {
				for _, reordered := range []bool{true, false} {
					cfg := quickConfig(scheme)
					cfg.KeyBits = 512
					cfg.ExpSpread, cfg.ReorderedAccumulation = spread, reordered
					sh.mutate(&cfg)
					cases = append(cases, sibCase{fmt.Sprintf("%s/%s/spread=%d/reordered=%v", scheme, sh.name, spread, reordered), sh.parts, cfg})
				}
			}
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sums, built := splitTreeSums(t, tc.parts, tc.cfg)
			for _, id := range []int32{3, 5} {
				if err := sameSums(sums[id], built[id]); err != nil {
					t.Errorf("node %d: derived vs built: %v", id, err)
				}
			}
			// The premise of the packed shapes: on the sparse data some feature
			// has a slot for every bin in the root and unslotted bins in the
			// two-instance node 2 derived from it; on the dense data every bin
			// of the root holds an instance, so every root bitmap is full.
			mixed, fullRoot := false, true
			for j, fs := range sums[1] {
				full, sparseKid := true, false
				for k := range fs.g {
					full = full && fs.g[k] != nil
					sparseKid = sparseKid || sums[2][j].g[k] == nil
				}
				mixed, fullRoot = mixed || (full && sparseKid), fullRoot && full
			}
			if strings.Contains(tc.name, "occupied-mask") && !mixed {
				t.Error("test premise broken: no feature is fully slotted in the parent and sparse in the child")
			}
			if strings.Contains(tc.name, "all-bins") && !fullRoot {
				t.Error("test premise broken: a root bin without an instance on the dense data")
			}
		})
	}
}

// TestSiblingDerivationModelParity: whole sessions, deriving siblings,
// serialize to the model bytes pinned while a passive party could still
// build both children of every split — the reference the unit matrix
// above cannot reach: deeper mock trees, real Paillier, multi-class rounds
// whose class roots arrive ahead of their trees, and the optimistic
// schedule, where the re-made children of a dirty node derive from the
// same cached parent its aborted children did.
func TestSiblingDerivationModelParity(t *testing.T) {
	_, deep := twoPartyData(t, 500, 8, 5, 0.6, false, 61)
	_, shallow := twoPartyData(t, 250, 4, 3, 1, true, 62)
	_, binary := twoPartyData(t, 400, 10, 2, 0.8, false, 63)
	_, multi := multiclassParts(t, 240, 6, 3, 41)
	shape := func(cfg Config, trees, depth int) Config {
		cfg.Trees, cfg.MaxDepth = trees, depth
		return cfg
	}
	mc := func(cfg Config) Config {
		cfg.Objective = mustObjective(t, "multiclass:3")
		cfg.Trees = 2
		return cfg
	}
	for _, tc := range []struct {
		name      string
		parts     []*dataset.Dataset
		cfg       Config
		wantDirty bool
		model     string // sha256 of the model both children built
	}{
		{"mock-deep", deep, shape(quickConfig(SchemeMock), 3, 4), false, "fde1a2f2efeda2ccb7cb9704f713c9c61e2a1bcd5e0323982bd6996e71ead953"},
		{"paillier-shallow", shallow, shape(quickConfig(SchemePaillier), 1, 3), false, "99cd40a30e9b669e54ec285e756d1ac856cc32509763946b6d724b4a93e79253"},
		{"optimistic-dirty", binary, quickConfig(SchemeMock), true, "e0c2372bd9e7daf124cf0743e06fe795b4e1b03f63bb50700ffd7bdcd7abf0ab"},
		{"paillier-optimistic", binary, quickConfig(SchemePaillier), false, "e0c2372bd9e7daf124cf0743e06fe795b4e1b03f63bb50700ffd7bdcd7abf0ab"},
		{"multiclass-scalar", multi, mc(quickConfig(SchemeMock)), false, "fb74545b8746e3ac1519034b21d192d5cf9ce298fa79d65e7b78c50af8858298"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, s := trainFed(t, tc.parts, tc.cfg)
			if tc.wantDirty && s.Stats().DirtyNodes() == 0 {
				t.Fatal("test premise broken: no dirty nodes")
			}
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.model {
				t.Errorf("model with derived siblings hashes to %s, the model with built siblings to %s", got, tc.model)
			}
		})
	}
}

// TestSiblingDerivationWithOptimisticDirty: dirty-node redo must
// compose with derivation (the aborted pair's one task stops, and the
// re-made children derive from the parent B still holds).
func TestSiblingDerivationWithOptimisticDirty(t *testing.T) {
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 63)
	seq := quickConfig(SchemeMock)
	seq.Trees = 3
	seq.OptimisticSplit = false
	opt := seq
	opt.OptimisticSplit = true

	mSeq, _ := trainFed(t, parts, seq)
	mOpt, sOpt := trainFed(t, parts, opt)
	if sOpt.Stats().DirtyNodes() == 0 {
		t.Fatal("test premise broken: no dirty nodes")
	}
	a, err := mSeq.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mOpt.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("sibling derivation + optimistic dirty handling diverged")
		}
	}
}

// siblingRig is a Party B whose one passive peer is the test: frames are
// filed straight into B's inbox, and whatever B tells the peer comes out of
// sent.
type siblingRig struct {
	b    *activeParty
	sent chanTransport
}

func newSiblingRig(t *testing.T) *siblingRig {
	b := newBareActiveParty(t, 100, 1, 97)
	plan, err := planPacking(b.codec, b.pairs.W, false)
	if err != nil {
		t.Fatal(err)
	}
	b.plan = plan // frame ships one slot per ciphertext
	r := &siblingRig{b: b, sent: chanTransport{ch: make(chan []byte, 16)}}
	b.links = []*link{NewLink(r.sent)}
	b.featCounts, b.offsets = []int{1}, []int32{0}
	b.inboxes = []*inbox{newInbox(plan)}
	b.sums = []map[inboxKey]nodeSums{{}}
	return r
}

// bin is one histogram cell: exact field integers at the plan's exponent.
// A nil g is an empty bin.
type bin struct{ g, h *big.Int }

func ints(g, h int64) bin { return bin{big.NewInt(g), big.NewInt(h)} }

// frame ships one single-feature node histogram of the given cells: one
// shifted prefix per occupied bin, each its own ciphertext.
func (r *siblingRig) frame(t *testing.T, tree int, node, parent, sibling int32, cells ...bin) {
	t.Helper()
	b := r.b
	occupied := make([]bool, len(cells))
	var cts [][]byte
	prefix := new(big.Int).Set(b.plan.shift)
	for k, c := range cells {
		if c.g == nil {
			continue
		}
		occupied[k] = true
		prefix.Add(prefix, new(big.Int).Lsh(c.g, uint(b.pairs.W))).Add(prefix, c.h)
		ct, err := b.dec.Encrypt(new(big.Int).Mod(prefix, b.dec.N()))
		if err != nil {
			t.Fatal(err)
		}
		cts = append(cts, b.dec.Marshal(ct))
	}
	fh := FeatHist{NumBins: len(cells), Occupied: packBitmap(occupied)}
	frames := []any{MsgHistograms{Tree: tree, Layer: 1, Nodes: []NodeHist{{Node: node, Parent: parent, Sibling: sibling, Packed: true, Feats: []FeatHist{fh}}}}}
	for c, ct := range cts {
		frames = append(frames, MsgHistCt{Tree: tree, Node: node, Index: c, Ct: ct})
	}
	fileFrames(t, b.inboxes[0], frames...)
}

// TestActiveRejectsHostileSiblingFrames is the table of
// TestActiveRejectsHostileHistograms for the announcing frame: every way a
// passive party can break the derivation contract ends B's session with
// the typed error, after B told the party why (MsgAbort) — a peer that
// ships a child unannounced, as one still building both children would,
// included.
func TestActiveRejectsHostileSiblingFrames(t *testing.T) {
	root := &bNode{id: rootID}
	built := &bNode{id: 2, parent: rootID, sibling: 3}
	derived := &bNode{id: 3, parent: rootID, sibling: 2, derived: true}
	empty := bin{}

	// The well-formed exchange derives the sibling exactly.
	r := newSiblingRig(t)
	r.frame(t, 0, rootID, 0, 0, ints(-40, 90), ints(7, 5), empty)
	r.frame(t, 0, 2, rootID, 3, ints(-30, 20), empty, empty)
	if _, err := r.b.passiveSums(0, 0, root); err != nil {
		t.Fatal(err)
	}
	s, err := r.b.passiveSums(0, 0, derived)
	if err != nil {
		t.Fatal(err)
	}
	if fs := s[0]; fs.g[0].Int64() != -10 || fs.h[0].Int64() != 70 || fs.g[1].Int64() != 7 || fs.h[1].Int64() != 5 || fs.g[2] != nil {
		t.Fatalf("derived sibling = %v / %v", fs.g, fs.h)
	}
	if len(r.sent.ch) != 0 {
		t.Fatal("a well-formed derivation sent the peer a frame")
	}

	w := r.b.pairs.W
	wide := new(big.Int).Lsh(big.NewInt(3), uint(w-3)) // 0.375·2^W: two of them overflow a field
	for _, tc := range []struct {
		name   string
		frames func(r *siblingRig)
		ask    []*bNode // the last one must fail
		tree   int
	}{
		{"child ships unannounced", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9))
			r.frame(t, 0, 2, 0, 0, ints(1, 4))
		}, []*bNode{root, derived}, 0},
		{"unannounced child asked for directly", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9))
			r.frame(t, 0, 2, 0, 0, ints(1, 4))
		}, []*bNode{root, built}, 0},
		{"announcement names another parent", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9))
			r.frame(t, 0, 2, 7, 3, ints(1, 4))
		}, []*bNode{root, derived}, 0},
		{"announcement names another sibling", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9))
			r.frame(t, 0, 2, rootID, 9, ints(1, 4))
		}, []*bNode{root, derived}, 0},
		{"root announces a split", func(r *siblingRig) {
			r.frame(t, 0, rootID, 4, 5, ints(1, 9))
		}, []*bNode{root}, 0},
		{"parent decrypted for another tree only", func(r *siblingRig) {
			r.frame(t, 1, rootID, 0, 0, ints(1, 9))
			r.frame(t, 0, 2, rootID, 3, ints(1, 4))
			if _, err := r.b.passiveSums(0, 1, root); err != nil {
				t.Fatal(err)
			}
		}, []*bNode{derived}, 0},
		// The inbox refuses the second announcement as it files it, so B's
		// next wait fails, even for a frame filed before it.
		{"child announced twice", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9))
			r.frame(t, 0, 2, rootID, 3, ints(1, 4))
			r.frame(t, 0, 2, rootID, 3, ints(0, 1))
		}, []*bNode{root}, 0},
		{"bin count differs from the parent's", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9), ints(1, 9))
			r.frame(t, 0, 2, rootID, 3, ints(1, 4), ints(0, 1), ints(0, 1))
		}, []*bNode{root, derived}, 0},
		{"mass the parent lacks", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(1, 9), empty)
			r.frame(t, 0, 2, rootID, 3, ints(1, 4), ints(0, 1))
		}, []*bNode{root, derived}, 0},
		{"negative derived hessian", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, ints(5, 9))
			r.frame(t, 0, 2, rootID, 3, ints(1, 10))
		}, []*bNode{root, derived}, 0},
		{"derived gradient beyond its field", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, bin{wide, big.NewInt(9)})
			r.frame(t, 0, 2, rootID, 3, bin{new(big.Int).Neg(wide), big.NewInt(4)})
		}, []*bNode{root, derived}, 0},
		{"derived hessian beyond its field", func(r *siblingRig) {
			r.frame(t, 0, rootID, 0, 0, bin{big.NewInt(1), new(big.Int).Lsh(wide, 1)})
			r.frame(t, 0, 2, rootID, 3, ints(1, 4))
		}, []*bNode{root, derived}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newSiblingRig(t)
			tc.frames(r)
			var err error
			for i, nd := range tc.ask {
				if _, err = r.b.passiveSums(0, tc.tree, nd); err != nil && i < len(tc.ask)-1 {
					t.Fatalf("node %d: %v", nd.id, err)
				}
			}
			if err == nil {
				t.Fatal("hostile frame accepted")
			}
			if !errors.Is(err, ErrSiblingDerivation) {
				t.Errorf("error %q: want ErrSiblingDerivation", err)
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

// TestPassiveStopsOnActiveAbort: B's abort ends the passive party's
// session with B's reason instead of leaving it waiting for decisions.
func TestPassiveStopsOnActiveAbort(t *testing.T) {
	_, parts := twoPartyData(t, 30, 2, 2, 1, true, 75)
	in := chanTransport{ch: make(chan []byte, 4)}
	p := testPassive(t, parts[0], quickConfig(SchemeMock), NewLink(pairTransport{send: discardTransport{}.Send, recv: in.Receive}))
	if err := NewLink(in).send(MsgAbort{Party: 1, Reason: "sibling derivation rejected"}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.run(); err == nil || !strings.Contains(err.Error(), "sibling derivation rejected") {
		t.Fatalf("run returned %v, want B's abort reason", err)
	}
}

// failingTransport errors on its n-th Send and works before and after.
type failingTransport struct {
	chanTransport
	mu    sync.Mutex
	sends int
	fail  int
}

var errLinkDown = errors.New("link down")

func (f *failingTransport) Send(b []byte) error {
	f.mu.Lock()
	f.sends++
	n := f.sends
	f.mu.Unlock()
	if n == f.fail {
		return errLinkDown
	}
	return f.chanTransport.Send(b)
}

// TestPassiveReportsLostHistogram: a node histogram the link refuses must
// fail the session on both sides — the party aborts and run returns the
// send error — instead of leaving B blocked on a histogram that is gone
// while the party carries on.
func TestPassiveReportsLostHistogram(t *testing.T) {
	const rows = 40
	_, parts := twoPartyData(t, rows, 2, 2, 1, true, 76)
	cfg := mustNormalize(t, quickConfig(SchemeMock))
	in := chanTransport{ch: make(chan []byte, 16)}
	// Sends: MsgReady, MsgResume, the root histogram, then node 2's.
	out := &failingTransport{chanTransport: chanTransport{ch: make(chan []byte, 16)}, fail: 4}
	p := testPassive(t, parts[0], cfg, NewLink(pairTransport{send: out.Send, recv: in.Receive}))
	dec := he.NewMock(512)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread))
	pairs, err := codec.PlanPairs(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	grads := MsgPairBatch{Cts: make([][]byte, rows), Exp: make([]int16, rows), Last: true}
	for i := range grads.Cts {
		e, err := pairs.Encrypt(0.25, 0.25, cfg.BaseExp)
		if err != nil {
			t.Fatal(err)
		}
		grads.Cts[i], grads.Exp[i] = dec.Marshal(e.Ct), int16(e.Exp)
	}
	bits := make([]bool, rows)
	for k := range bits {
		bits[k] = k < 10
	}
	sender := NewLink(in)
	for _, m := range []any{
		MsgSetup{Scheme: SchemeMock, Bits: 512, BaseExp: cfg.BaseExp, ExpSpread: cfg.ExpSpread, PairBits: pairs.W, ShiftCt: setupShift(t, dec, pairs.W)},
		grads,
		MsgDecisions{Nodes: []NodeDecision{{Node: rootID, Action: ActionSplitB, LeftID: 2, RightID: 3, Placement: packBitmap(bits), Count: rows}}},
		MsgTreeDone{},
		MsgShutdown{},
	} {
		if err := sender.send(m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.run(); !errors.Is(err, errLinkDown) {
		t.Fatalf("run returned %v, want the histogram's send error", err)
	}
	var last any
	for len(out.ch) > 0 {
		if last, err = NewLink(out.chanTransport).recv(); err != nil {
			t.Fatal(err)
		}
	}
	if ab, ok := last.(MsgAbort); !ok || !strings.Contains(ab.Reason, errLinkDown.Error()) {
		t.Errorf("last frame sent = %#v, want the MsgAbort naming the lost histogram", last)
	}
}
