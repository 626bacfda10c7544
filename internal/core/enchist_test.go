package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vf2boost/internal/dataset"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// encTestRig builds the pieces an encrypted-histogram test needs.
type encTestRig struct {
	d      *dataset.Dataset
	mapper *gbdt.BinMapper
	bm     *gbdt.BinnedMatrix
	codec  *fixedpoint.Codec
	pairs  fixedpoint.PairPlan
	dec    he.Decryptor
	gh     []fixedpoint.EncNum
	grads  []float64
	hess   []float64
	insts  []int32
}

func newEncRig(t testing.TB, rows, cols int, density float64, seed int64) *encTestRig {
	t.Helper()
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: cols, Density: density, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	mapper, err := gbdt.NewBinMapper(d, 8)
	if err != nil {
		t.Fatal(err)
	}
	dec := he.NewMock(512)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(seed))
	pairs, err := codec.PlanPairs(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	rig := &encTestRig{
		d: d, mapper: mapper, bm: gbdt.NewBinnedMatrix(d, mapper),
		codec: codec, pairs: pairs, dec: dec,
		gh:    make([]fixedpoint.EncNum, rows),
		grads: make([]float64, rows),
		hess:  make([]float64, rows),
		insts: make([]int32, rows),
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < rows; i++ {
		rig.grads[i] = rng.Float64()*2 - 1
		rig.hess[i] = rng.Float64() * 0.25
		if rig.gh[i], err = pairs.Encrypt(rig.grads[i], rig.hess[i], codec.ExpAt(0, 0, i)); err != nil {
			t.Fatal(err)
		}
		rig.insts[i] = int32(i)
	}
	return rig
}

// finalizeAll resolves every bin at the codec's top exponent.
func (eh *EncHistogram) finalizeAll() []fixedpoint.EncNum {
	bins := make([]fixedpoint.EncNum, eh.totalBins())
	top := eh.codec.BaseExp() + eh.codec.ExpSpread() - 1
	for idx := range bins {
		bins[idx] = eh.mergeBin(idx, top, new(int64))
	}
	return bins
}

// plaintextBins computes the reference per-bin sums with the plaintext
// engine.
func (r *encTestRig) plaintextBins() *gbdt.Histogram {
	h := gbdt.NewHistogram(r.mapper)
	h.Accumulate(r.bm, r.insts, r.grads, r.hess)
	return h
}

// decryptAll decrypts a finalized encrypted histogram into flat sums.
func (r *encTestRig) decryptAll(t *testing.T, bins []fixedpoint.EncNum) (gs, hs []float64) {
	t.Helper()
	gs = make([]float64, len(bins))
	hs = make([]float64, len(bins))
	for i, b := range bins {
		if b.Ct == nil {
			continue
		}
		var err error
		if gs[i], hs[i], err = r.pairs.Decrypt(r.dec, b); err != nil {
			t.Fatal(err)
		}
	}
	return gs, hs
}

func TestEncHistogramMatchesPlaintext(t *testing.T) {
	for _, reordered := range []bool{false, true} {
		rig := newEncRig(t, 120, 6, 0.6, 31)
		eh := NewEncHistogram(rig.codec, rig.mapper, reordered)
		eh.Accumulate(rig.bm, rig.insts, rig.gh)
		gs, hs := rig.decryptAll(t, eh.finalizeAll())
		ref := rig.plaintextBins()
		for i := range gs {
			if math.Abs(gs[i]-ref.G[i]) > 1e-6 || math.Abs(hs[i]-ref.H[i]) > 1e-6 {
				t.Fatalf("reordered=%v bin %d: enc (%g,%g) vs plain (%g,%g)",
					reordered, i, gs[i], hs[i], ref.G[i], ref.H[i])
			}
		}
	}
}

func TestEncHistogramMergeMatchesSingle(t *testing.T) {
	for _, reordered := range []bool{false, true} {
		rig := newEncRig(t, 100, 5, 0.5, 32)
		full := NewEncHistogram(rig.codec, rig.mapper, reordered)
		full.Accumulate(rig.bm, rig.insts, rig.gh)

		h1 := NewEncHistogram(rig.codec, rig.mapper, reordered)
		h2 := NewEncHistogram(rig.codec, rig.mapper, reordered)
		h1.Accumulate(rig.bm, rig.insts[:50], rig.gh)
		h2.Accumulate(rig.bm, rig.insts[50:], rig.gh)
		h1.Merge(h2)

		gsF, hsF := rig.decryptAll(t, full.finalizeAll())
		gsM, hsM := rig.decryptAll(t, h1.finalizeAll())
		for i := range gsF {
			if gsF[i] != gsM[i] || hsF[i] != hsM[i] {
				t.Fatalf("reordered=%v merged shard mismatch at bin %d", reordered, i)
			}
		}
	}
}

func TestReorderedUsesNoAccumulationScalings(t *testing.T) {
	rig := newEncRig(t, 200, 5, 0.5, 33)
	before := rig.codec.Stats().Scalings()
	eh := NewEncHistogram(rig.codec, rig.mapper, true)
	eh.Accumulate(rig.bm, rig.insts, rig.gh)
	during := rig.codec.Stats().Scalings()
	if during != before {
		t.Errorf("re-ordered accumulation performed %d scalings; must be zero", during-before)
	}
	eh.finalizeAll()
	// Finalize may scale at most (E-1) per occupied bin.
	budget := int64((rig.codec.ExpSpread() - 1)) * int64(eh.totalBins())
	if scaled := rig.codec.Stats().Scalings() - during; scaled > budget {
		t.Errorf("finalize used %d scalings, budget %d", scaled, budget)
	}

	// The naive path must scale a lot on the same input.
	naiveRig := newEncRig(t, 200, 5, 0.5, 33)
	nh := NewEncHistogram(naiveRig.codec, naiveRig.mapper, false)
	nh.Accumulate(naiveRig.bm, naiveRig.insts, naiveRig.gh)
	if naiveRig.codec.Stats().Scalings() == 0 {
		t.Error("naive accumulation performed no scalings; exponents not mixed")
	}
}

// TestOneHAddPerRowFeature pins the tentpole's cost claim on the passive
// side: accumulating a node costs exactly one homomorphic addition per
// (instance, stored feature).
func TestOneHAddPerRowFeature(t *testing.T) {
	rig := newEncRig(t, 150, 6, 0.5, 34)
	nnz := int64(0)
	for _, i := range rig.insts {
		cols, _, err := rig.bm.Row(int(i))
		if err != nil {
			t.Fatal(err)
		}
		nnz += int64(len(cols))
	}
	before := rig.codec.Stats().HAdds()
	eh := NewEncHistogram(rig.codec, rig.mapper, true)
	eh.Accumulate(rig.bm, rig.insts, rig.gh)
	if got := rig.codec.Stats().HAdds() - before; got != nnz {
		t.Errorf("accumulation used %d HAdds for %d stored cells", got, nnz)
	}
}

func TestPlanPackingInfeasible(t *testing.T) {
	dec := he.NewMock(64) // tiny modulus: one 2W-bit slot cannot fit
	codec := fixedpoint.NewCodec(dec)
	if _, err := planPacking(codec, 32, true); err == nil {
		t.Error("infeasible packing plan accepted")
	}
}

// TestPlanPackingSlotWidth: a slot is exactly two pair fields wide — the
// benchmark's rows-dominant shape packs 17 bins per 2048-bit ciphertext,
// so a 10-feature node of 200 slots fills 12 ciphertexts where packing
// feature by feature shipped 20.
func TestPlanPackingSlotWidth(t *testing.T) {
	codec := fixedpoint.NewCodec(he.NewMock(2048))
	pairs, err := codec.PlanPairs(2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planPacking(codec, pairs.W, true)
	if err != nil {
		t.Fatal(err)
	}
	if pairs.W != 57 || plan.bits != 114 || plan.capacity != 17 || plan.chunks(200) != 12 {
		t.Errorf("W=%d bits=%d capacity=%d cts(200)=%d, want 57/114/17/12", pairs.W, plan.bits, plan.capacity, plan.chunks(200))
	}
}

func TestBitmapRoundTrip(t *testing.T) {
	f := func(raw []bool) bool {
		bm := packBitmap(raw)
		for i, want := range raw {
			if bitmapGet(bm, i) != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestApplyPlacement(t *testing.T) {
	insts := []int32{10, 20, 30, 40, 50}
	bits := packBitmap([]bool{true, false, true, true, false})
	left, right, err := applyPlacement(insts, bits)
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 3 || left[0] != 10 || left[1] != 30 || left[2] != 40 {
		t.Errorf("left = %v", left)
	}
	if len(right) != 2 || right[0] != 20 || right[1] != 50 {
		t.Errorf("right = %v", right)
	}
	l, r, err := applyPlacement(nil, nil)
	if err != nil || l != nil || r != nil {
		t.Error("empty placement mishandled")
	}
	for _, bm := range [][]byte{nil, {bits[0], 0}} {
		if _, _, err := applyPlacement(insts, bm); !errors.Is(err, ErrRoutingBits) {
			t.Errorf("%d-byte placement for %d instances: %v, want ErrRoutingBits", len(bm), len(insts), err)
		}
	}
}
