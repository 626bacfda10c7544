package core

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/objective"
	"vf2boost/internal/paillier"
	"vf2boost/internal/wire"
)

// TestGoldenModelAtFixedExponent pins the serialized model of one fixed
// session per protocol shape, at ExpSpread=1, to the hash the
// two-ciphertext layout produced for it (commit b5d83cb). Folding ⟨g,h⟩
// into one plaintext changes how the bin sums travel, not which integers
// they are, so with the exponent draw out of the picture the model bytes
// must not move — on any scheme, packed or not.
//
// The paillier-2048 rows run at the paper's key size, where Party A's
// accumulators take the n-adic digit form and the packing chain and
// decryption run on the Montgomery kernel (on a CPU that has one), with
// re-ordered accumulation and without it. One key serves both.
func TestGoldenModelAtFixedExponent(t *testing.T) {
	const optimized = "56df290a8b7afc892b40e39dd99706ef5f9e2732ccd5cb0b8dd61c944c66b34e"
	base := MockConfig()
	base.Trees, base.MaxDepth, base.MaxBins, base.KeyBits, base.BatchSize = 3, 3, 8, 256, 100
	key, err := paillier.GenerateKey(rand.Reader, 2048)
	if err != nil {
		t.Fatal(err)
	}
	dec2048 := he.NewPaillierFromKey(key, 0)
	wide := quickConfig(SchemePaillier)
	wide.KeyBits = 2048
	wideNaive := wide
	wideNaive.ReorderedAccumulation = false
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
		dec  he.Decryptor
	}{
		{"mock-optimized", quickConfig(SchemeMock), optimized, nil},
		{"paillier-optimized", quickConfig(SchemePaillier), optimized, nil},
		{"mock-baseline", base, "a8c75d61d60dae2a142c01e632b7249bc4f9ebec97b31ab1974d0fe94240a195", nil},
		{"paillier-2048", wide, optimized, dec2048},
		{"paillier-2048-naive", wideNaive, optimized, dec2048},
	} {
		tc.cfg.ExpSpread = 1
		tc.cfg.Seed = 7
		_, parts := twoPartyData(t, 300, 4, 3, 0.6, false, 77)
		var opts []SessionOption
		if tc.dec != nil {
			opts = append(opts, WithDecryptor(tc.dec))
		}
		m, _ := trainFed(t, parts, tc.cfg, opts...)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != tc.want {
			t.Errorf("%s: model hash %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestScalarBackendByteIdentity pins the model of a session at the default
// exponent spread to the hash it had while the scalar scheme still sat
// behind a backend registry, named ("mock") or not: removing the registry
// and the lane-packed backends must not move a scalar model's bytes.
func TestScalarBackendByteIdentity(t *testing.T) {
	_, parts := twoPartyData(t, 200, 3, 3, 1, true, 25)
	m, _ := trainFed(t, parts, quickConfig(SchemeMock))
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	const want = "14de2198275fff16c93c9a5d12b96f17116b269d21ada04fc94dde64da63b63f"
	if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != want {
		t.Errorf("model hash %s, want %s", got, want)
	}
}

// TestGoldenModelAtEveryWorkerCount pins a B-heavy session large enough
// for Party B's own histograms to span many rows per node: B builds them
// with the local trainer's one reduction order, so the model must not
// move with Workers.
func TestGoldenModelAtEveryWorkerCount(t *testing.T) {
	for _, g := range []struct {
		rows int
		want string
	}{
		{2500, "189fe85200071cd0cd32c2bb64fce3df77e7ad9f8189c603a3598521b479b3ba"},
		{10000, "d3d85fd0e2dbdb5ea2b28eb4dffe8a2685a519883f7e10ee8d8f28605981a6bd"},
	} {
		_, parts := twoPartyData(t, g.rows, 2, 8, 0.6, false, 77)
		for _, workers := range []int{1, 2, 4} {
			cfg := quickConfig(SchemeMock)
			cfg.ExpSpread, cfg.Seed, cfg.Workers = 1, 7, workers
			m, _ := trainFed(t, parts, cfg)
			var buf bytes.Buffer
			if err := m.Save(&buf); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())); got != g.want {
				t.Errorf("rows=%d workers=%d: model hash %s, want %s", g.rows, workers, got, g.want)
			}
		}
	}
}

// TestOneEncryptionPerInstance pins Party B's side of the cost claim: a
// tree costs exactly one encryption per row.
func TestOneEncryptionPerInstance(t *testing.T) {
	_, parts := twoPartyData(t, 200, 3, 3, 1, true, 5)
	cfg := quickConfig(SchemeMock)
	_, s := trainFed(t, parts, cfg)
	if got, want := s.Crypto().Encryptions(), int64(200*cfg.Trees); got != want {
		t.Errorf("%d encryptions for %d trees of 200 rows, want %d", got, cfg.Trees, want)
	}
}

func TestDerivedBlasterBatch(t *testing.T) {
	for _, tc := range []struct{ rows, configured, want int }{
		{2000, 0, 125}, {300, 0, 64}, {16384, 0, 1024}, {20000, 0, 1024}, {2000, 500, 500},
	} {
		d, err := dataset.Generate(dataset.GenOptions{Rows: tc.rows, Cols: 2, Density: 1, Dense: true, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cfg := quickConfig(SchemeMock)
		cfg.BatchSize = tc.configured
		b := testActive(t, d, cfg, he.NewMock(512), nil)
		if b.batch != tc.want {
			t.Errorf("rows=%d BatchSize=%d: batch %d, want %d", tc.rows, tc.configured, b.batch, tc.want)
		}
	}
}

// negHessObjective is a single-output objective whose first hessian is
// negative — the input the folded low field must never see.
type negHessObjective struct{ objective.Objective }

func (o negHessObjective) GradHess(labels []float64, margins, grads, hess [][]float64) error {
	if err := o.Objective.GradHess(labels, margins, grads, hess); err != nil {
		return err
	}
	hess[0][0] = -0.01
	return nil
}

// TestActiveRejectsUnfoldablePairs: a pair the layout cannot carry aborts
// the session with the typed error before anything is encrypted from it.
func TestActiveRejectsUnfoldablePairs(t *testing.T) {
	_, parts := twoPartyData(t, 60, 2, 2, 1, true, 6)
	cfg := quickConfig(SchemeMock)
	cfg.Objective = negHessObjective{objective.FromLoss(gbdt.LogisticLoss{})}
	s, err := NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Train(); !errors.Is(err, fixedpoint.ErrPairRange) {
		t.Fatalf("training on a negative hessian returned %v, want ErrPairRange", err)
	}

	b := newBareActiveParty(t, 10, 2, 7)
	for name, gh := range map[string][2]float64{
		"nan g": {math.NaN(), 0.1}, "inf h": {0.1, math.Inf(1)}, "h<0": {0.1, -1e-9},
		"g beyond its field": {1e6, 0.1}, "h beyond its field": {0.1, 1e6},
	} {
		grads, hess := make([]float64, 10), make([]float64, 10)
		grads[3], hess[3] = gh[0], gh[1]
		m := MsgPairBatch{Cts: make([][]byte, 10), Exp: make([]int16, 10)}
		if err := b.encryptRange(0, grads, hess, &m); !errors.Is(err, fixedpoint.ErrPairRange) {
			t.Errorf("%s: encryptRange returned %v, want ErrPairRange", name, err)
		}
	}
}

// rawFrame hand-builds a binary frame, for layouts no encoder emits.
func rawFrame(id uint16, body []byte) []byte {
	f := []byte{wire.TagBinaryV1, 0, 0, 0, 0, 0, 0}
	binary.BigEndian.PutUint16(f[1:3], id)
	binary.BigEndian.PutUint32(f[3:7], uint32(len(body)))
	return append(f, body...)
}

// retagged is m's binary frame under another leading tag byte.
func retagged(tag byte, m any) []byte {
	f, err := wire.Binary.Encode(m)
	if err != nil {
		panic(err)
	}
	return append([]byte{tag}, f[1:]...)
}

// legacySetupFrame is the scalar setup an old-layout Party B sends: the
// retired idSetupV2 body, with its Shift and without a pair width.
func legacySetupFrame() []byte {
	b := wire.AppendString(nil, SchemeMock)
	b = wire.AppendBytes(b, nil)
	b = wire.AppendInt(b, 512)
	b = wire.AppendInt(b, 8)
	b = wire.AppendInt(b, 4)
	b = wire.AppendInt(b, 64)
	b = wire.AppendFloat64(b, 30)
	b = wire.AppendBytes(b, nil)
	b = wire.AppendInt(b, 0)
	return rawFrame(idSetupV2, b)
}

// TestPassiveRejectsHostileFrames drives malformed and hostile setup,
// gradient and decision frames into a passive party. Every case must end the session
// with an error — the typed ErrLegacyLayout for an old-layout peer —
// after telling B why (MsgAbort), and never panic or size an allocation
// from the frame.
func TestPassiveRejectsHostileFrames(t *testing.T) {
	const rows = 30
	okSetup := MsgSetup{Scheme: SchemeMock, Bits: 512, BaseExp: 8, ExpSpread: 4, PairBits: 60, PackBits: 120}
	with := func(f func(*MsgSetup)) MsgSetup { m := okSetup; f(&m); return m }
	ct := []byte{1}
	batch := func(f func(*MsgPairBatch)) MsgPairBatch {
		m := MsgPairBatch{Start: 0, Cts: [][]byte{ct, ct}, Exp: []int16{8, 11}}
		f(&m)
		return m
	}
	whole := MsgPairBatch{Cts: make([][]byte, rows), Exp: make([]int16, rows), Last: true}
	for i := range whole.Cts {
		whole.Cts[i], whole.Exp[i] = ct, 8
	}
	for _, tc := range []struct {
		name   string
		frames []any // MsgX values, or raw []byte frames
		legacy bool
		reason string
	}{
		{"setup without pair width", []any{with(func(m *MsgSetup) { m.PairBits, m.PackBits = 0, 0 })}, true, ""},
		{"retired setup frame", []any{legacySetupFrame()}, true, ""},
		{"retired gradient frame", []any{okSetup, MsgGradBatch{G: [][]byte{ct}, H: [][]byte{ct}, GExp: []int16{8}, HExp: []int16{8}}}, true, ""},
		{"pair fields wider than the modulus", []any{with(func(m *MsgSetup) { m.PairBits, m.PackBits = 256, 0 })}, false, "do not fit"},
		{"negative pair width", []any{with(func(m *MsgSetup) { m.PairBits, m.PackBits = -4, 0 })}, false, "do not fit"},
		{"slot width not two fields", []any{with(func(m *MsgSetup) { m.PackBits = 64 })}, false, "folded pairs need"},
		{"slot width beyond the modulus", []any{with(func(m *MsgSetup) { m.PackBits = 1 << 20 })}, false, "folded pairs need"},
		{"zero exponent spread", []any{with(func(m *MsgSetup) { m.ExpSpread = 0 })}, false, "exponents"},
		{"huge exponent spread", []any{with(func(m *MsgSetup) { m.ExpSpread = 1 << 40 })}, false, "exponents"},
		{"huge mock modulus", []any{with(func(m *MsgSetup) { m.Bits = 1 << 40 })}, false, "mock modulus"},
		{"huge output count", []any{with(func(m *MsgSetup) { m.Objective, m.Outputs = "multiclass:3", 1<<40 })}, false, "outputs"},
		{"batch past the last row", []any{okSetup, batch(func(m *MsgPairBatch) { m.Start = rows - 1 })}, false, "out of range"},
		{"start beyond the rows", []any{okSetup, batch(func(m *MsgPairBatch) { m.Start = rows + 5 })}, false, "out of range"},
		{"negative start", []any{okSetup, batch(func(m *MsgPairBatch) { m.Start = -1 })}, false, "out of range"},
		{"negative tree", []any{okSetup, batch(func(m *MsgPairBatch) { m.Tree = -3 })}, false, "out of range"},
		{"fewer exponents than ciphertexts", []any{okSetup, batch(func(m *MsgPairBatch) { m.Exp = m.Exp[:1] })}, false, "exponents"},
		{"exponent below the range", []any{okSetup, batch(func(m *MsgPairBatch) { m.Exp[1] = 7 })}, false, "outside codec range"},
		{"exponent above the range", []any{okSetup, batch(func(m *MsgPairBatch) { m.Exp[0] = 12 })}, false, "outside codec range"},
		{"class beyond the outputs", []any{okSetup, batch(func(m *MsgPairBatch) { m.Class = 1 })}, false, "class 1 of 1"},
		{"batch after the last batch", []any{okSetup, whole, batch(func(*MsgPairBatch) {})}, false, "after its last batch"},
		{"decision for unknown node", []any{okSetup, MsgDecisions{Nodes: []NodeDecision{{Node: 999, Action: ActionLeaf}}}}, false, "unknown node 999"},
		{"dirty for unknown node", []any{okSetup, MsgDirty{Node: 999, LeftID: 4, RightID: 5}}, false, "unknown node 999"},
		{"node ciphertext from B", []any{okSetup, MsgHistCt{Node: rootID, Ct: ct}}, false, "unexpected message core.MsgHistCt"},
		// Placements that do not cover the node, and own splits on a feature
		// or bin the party does not have.
		{"short SplitB placement", []any{okSetup, whole, MsgDecisions{Nodes: []NodeDecision{{Node: rootID, Action: ActionSplitB, LeftID: 2, RightID: 3, Placement: []byte{0xFF}, Count: rows}}}}, false, "1-byte placement for 30 instances"},
		{"short relayed placement", []any{okSetup, whole, MsgDecisions{Nodes: []NodeDecision{{Node: rootID, Action: ActionSplitA, Owner: 1, LeftID: 2, RightID: 3, Placement: []byte{0xFF}, Count: rows}}}}, false, "1-byte placement for 30 instances"},
		{"own split on a feature it lacks", []any{okSetup, whole, MsgDecisions{Nodes: []NodeDecision{{Node: rootID, Action: ActionSplitA, LeftID: 2, RightID: 3, Feature: 99}}}}, false, "feature 99 bin 0"},
		{"own split on a bin it lacks", []any{okSetup, whole, MsgDecisions{Nodes: []NodeDecision{{Node: rootID, Action: ActionSplitA, LeftID: 2, RightID: 3, Bin: 200}}}}, false, "feature 0 bin 200"},
		{"correction on a negative feature", []any{okSetup, whole, MsgDirty{Node: rootID, LeftID: 4, RightID: 5, Feature: -1}}, false, "feature -1 bin 0"},
		// Frames no registered decoder reads: the retired batched-backend
		// and per-bin histogram IDs, and one never assigned.
		{"retired batched setup", []any{rawFrame(idSetupV3, nil)}, false, "message ID 24"},
		{"retired vectorized gradient batch", []any{okSetup, rawFrame(idVecGradBatch, nil)}, false, "message ID 25"},
		{"retired vectorized histograms", []any{okSetup, rawFrame(idHistogramsV2, nil)}, false, "message ID 26"},
		{"retired folded histograms", []any{okSetup, retiredHistogramFrames()[0]}, false, "message ID 30"},
		{"retired announcing histograms", []any{okSetup, retiredHistogramFrames()[1]}, false, "message ID 32"},
		{"unknown message ID", []any{rawFrame(0xFFFE, nil)}, false, "message ID 65534"},
		// The setup of a B still pinned to the retired gob codec: refused by
		// its tag, whatever the body.
		{"retired gob codec setup", []any{retagged(wire.TagGob, okSetup)}, false, "tag 0x00 belongs to the retired gob codec"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runErr := runPassiveOn(t, rows, tc.frames...)
			if errors.Is(runErr, ErrLegacyLayout) != tc.legacy {
				t.Errorf("error %q: ErrLegacyLayout = %v, want %v", runErr, !tc.legacy, tc.legacy)
			}
			if !strings.Contains(runErr.Error(), tc.reason) {
				t.Errorf("error %q does not mention %q", runErr, tc.reason)
			}
		})
	}
}

// runPassiveOn feeds frames (MsgX values, or raw []byte frames) from B into
// a fresh passive party over rows instances and returns the error its run
// ends with. Every such run must end in an error, and the last frame the
// party sent must be the abort naming it (a valid setup is answered
// first), so B never waits on an answer that will not come.
func runPassiveOn(t *testing.T, rows int, frames ...any) error {
	t.Helper()
	_, parts := twoPartyData(t, rows, 2, 2, 1, true, 75)
	in := chanTransport{ch: make(chan []byte, 16)}
	out := chanTransport{ch: make(chan []byte, 16)}
	p := testPassive(t, parts[0], quickConfig(SchemeMock), NewLink(pairTransport{send: out.Send, recv: in.Receive}))
	sender := NewLink(in)
	for _, f := range frames {
		if raw, ok := f.([]byte); ok {
			in.ch <- raw
		} else if err := sender.send(f); err != nil {
			t.Fatal(err)
		}
	}
	_, runErr := p.run()
	if runErr == nil {
		t.Fatal("hostile frame accepted")
	}
	var last any
	for len(out.ch) > 0 {
		m, err := NewLink(out).recv()
		if err != nil {
			t.Fatal(err)
		}
		last = m
	}
	if ab, ok := last.(MsgAbort); !ok || ab.Reason != runErr.Error() {
		t.Errorf("last frame sent = %#v, want MsgAbort{%q}", last, runErr)
	}
	return runErr
}

// TestPeerBackendRejection: a Party B from before the lane-packed backends
// were removed negotiates one in its very first frame — the idSetupV3
// setup, or idSetupV4 when it also names an objective. The passive party
// refuses that frame by its ID and tells B why before any ciphertext flows.
func TestPeerBackendRejection(t *testing.T) {
	for _, id := range []uint16{idSetupV3, idSetupV4} {
		b := wire.AppendString(nil, SchemePaillier)
		b = wire.AppendBytes(b, []byte{0xDE, 0xAD})
		for _, v := range []int{512, 8, 1, 0} { // Bits, BaseExp, ExpSpread, PackBits
			b = wire.AppendInt(b, v)
		}
		b = wire.AppendFloat64(b, 0) // Shift
		b = wire.AppendBytes(b, nil) // ObfBase
		b = wire.AppendInt(b, 0)     // ObfBits
		b = wire.AppendString(b, "paillier-batched")
		for _, v := range []int{6, 66, 32} { // Slots, LaneBits, Headroom
			b = wire.AppendInt(b, v)
		}
		if id == idSetupV4 {
			b = wire.AppendString(b, "multiclass:3")
			b = wire.AppendInt(b, 3)
		}
		if err := runPassiveOn(t, 30, rawFrame(id, b)); !strings.Contains(err.Error(), fmt.Sprintf("message ID %d", id)) {
			t.Errorf("batched setup under id %d refused with %q, which does not name the frame", id, err)
		}
	}
}

// TestUnknownBackendRejected: the names of the retired lane-packed
// backends are not schemes; configuring one fails before any key exists.
func TestUnknownBackendRejected(t *testing.T) {
	_, parts := twoPartyData(t, 50, 2, 2, 1, true, 26)
	for _, name := range []string{"paillier-batched", "mock-batched"} {
		if _, err := NewSession(parts, quickConfig(name)); err == nil || !strings.Contains(err.Error(), "unknown scheme") {
			t.Errorf("scheme %q: NewSession returned %v, want the unknown-scheme error", name, err)
		}
	}
}

// TestActiveRejectsHostileHistograms is the same table for the frames a
// passive party controls, at one slot per ciphertext: every size in a
// histogram is checked against the session's own plan before it sizes or
// indexes anything, and the retired two-ciphertext frame is refused by
// name. The packed plan's table is TestActiveRejectsHostilePackedFrames.
func TestActiveRejectsHostileHistograms(t *testing.T) {
	dec := he.NewMock(512)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithExponents(8, 4))
	pairs, err := codec.PlanPairs(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planPacking(codec, pairs.W, false)
	if err != nil {
		t.Fatal(err)
	}
	encrypt := func(m *big.Int) []byte {
		ct, err := dec.Encrypt(m)
		if err != nil {
			t.Fatal(err)
		}
		return dec.Marshal(ct)
	}
	// One slot: ⟨−0.5, 0.25⟩ at the plan's exponent, shifted.
	man, err := pairs.Encode(-0.5, 0.25, plan.exp)
	if err != nil {
		t.Fatal(err)
	}
	slot := new(big.Int).Add(plan.shift, man.Man)
	ct := encrypt(slot.Mod(slot, dec.N()))
	newB := func() *activeParty {
		return &activeParty{cfg: quickConfig(SchemeMock), dec: dec, codec: codec, pairs: pairs,
			plan: plan, featCounts: []int{1}, units: make(unitQueue, 2)}
	}
	node := func(fh FeatHist, cts ...[]byte) shipped {
		return shipped{NodeHist{Node: rootID, Packed: true, Feats: []FeatHist{fh}}, cts}
	}

	// The well-formed shape decrypts.
	s, err := newB().unpackShipped(t, node(FeatHist{NumBins: 2, Occupied: []byte{0b01}}, ct))
	if err != nil {
		t.Fatalf("well-formed node: %v", err)
	}
	if g, h := s[0].floats(codec.Base(), plan.exp); g[0] != -0.5 || h[0] != 0.25 || g[1] != 0 || h[1] != 0 {
		t.Fatalf("well-formed node: g=%v h=%v", g, h)
	}

	for _, tc := range []struct {
		name   string
		nh     shipped
		legacy bool
	}{
		{"negative bin count", node(FeatHist{NumBins: -1}), false},
		{"bin count beyond MaxBins", node(FeatHist{NumBins: 1 << 40, Occupied: []byte{1}}, ct), false},
		{"more ciphertexts than slots", node(FeatHist{NumBins: 3, Occupied: []byte{0b001}}, ct, ct), false},
		{"a slot beyond its 2W bits", node(FeatHist{NumBins: 1, Occupied: []byte{1}}, encrypt(new(big.Int).Lsh(big.NewInt(1), uint(plan.bits)))), false},
		{"more features than announced", shipped{head: NodeHist{Node: rootID, Packed: true, Feats: make([]FeatHist, 2)}}, false},
		{"retired per-feature packing", shipped{head: NodeHist{Node: rootID, Feats: []FeatHist{{NumBins: 2, Packed: true}}}}, true},
		{"retired two-ciphertext packing", shipped{head: NodeHist{Node: rootID, Feats: []FeatHist{{NumBins: 2, Packed: true, PackedG: [][]byte{ct}, PackedH: [][]byte{ct}}}}}, true},
	} {
		_, err := newB().unpackShipped(t, tc.nh)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
		if errors.Is(err, ErrLegacyLayout) != tc.legacy || errors.Is(err, ErrPackedLayout) == tc.legacy {
			t.Errorf("%s: error %q, want ErrLegacyLayout=%v, ErrPackedLayout=%v", tc.name, err, tc.legacy, !tc.legacy)
		}
	}
}
