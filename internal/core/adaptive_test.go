package core

import (
	"math"
	"testing"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
)

// TestAdaptiveOptimismBacksOff: with a feature-rich passive party the
// dirty ratio exceeds 1/2 on the first tree, so adaptive optimism must
// fall back to the sequential schedule and accumulate fewer dirty nodes
// than pure optimism — with an identical model.
func TestAdaptiveOptimismBacksOff(t *testing.T) {
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 41)
	pure := quickConfig(SchemeMock)
	pure.Trees = 4
	pure.OptimisticSplit = true
	pure.AdaptiveOptimism = false
	adaptive := pure
	adaptive.AdaptiveOptimism = true

	mPure, sPure := trainFed(t, parts, pure)
	mAdap, sAdap := trainFed(t, parts, adaptive)

	if sPure.Stats().DirtyNodes() == 0 {
		t.Fatal("test premise broken: pure optimism saw no dirty nodes")
	}
	if sAdap.Stats().DirtyNodes() >= sPure.Stats().DirtyNodes() {
		t.Errorf("adaptive optimism did not reduce dirty nodes: %d vs %d",
			sAdap.Stats().DirtyNodes(), sPure.Stats().DirtyNodes())
	}
	a, err := mPure.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mAdap.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("adaptive optimism changed the model")
		}
	}
}

// TestAdaptivePackingEquivalence: always-pack and adaptive-pack must
// produce the same model; adaptive just changes the wire format of sparse
// features.
func TestAdaptivePackingEquivalence(t *testing.T) {
	_, parts := twoPartyData(t, 400, 10, 4, 0.3, false, 42)
	always := quickConfig(SchemeMock)
	always.HistogramPacking = true
	always.AdaptivePacking = false
	adaptive := always
	adaptive.AdaptivePacking = true

	mA, _ := trainFed(t, parts, always)
	mB, _ := trainFed(t, parts, adaptive)
	a, err := mA.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mB.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if math.Abs(a[i]-b[i]) > 1e-9 {
			t.Fatal("adaptive packing changed the model")
		}
	}
}

// TestAdaptivePackingReducesDecryptionsOnSparse: Party B decrypts exactly
// the ciphertexts the chunk rule yields — for the bins with mass under the
// occupancy mask, for every bin without it. A root's count follows from
// the data alone; below it, where sparse data leaves most bins of a small
// node empty, the mask must cut both the slots and the decryptions.
func TestAdaptivePackingReducesDecryptionsOnSparse(t *testing.T) {
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
	total := 0
	for j := range mapper.Cuts {
		total += mapper.NumBins(j)
	}
	codec := fixedpoint.NewCodec(testDecryptor(t), fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread))
	pairs, err := codec.PlanPairs(rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := planPacking(codec, pairs.W)
	if err != nil {
		t.Fatal(err)
	}
	var slots, decryptions [2]int64
	for i, adaptive := range []bool{true, false} {
		cfg.AdaptivePacking = adaptive
		rootSlots := total
		if adaptive {
			rootSlots = len(seen)
		}
		cfg.MaxDepth = 1 // the root is the one histogram of the session
		_, s := trainFed(t, parts, cfg)
		if got, want := s.Crypto().Decryptions(), int64(plan.chunks(rootSlots)); got != want {
			t.Errorf("AdaptivePacking=%v: %d decryptions for a root of %d slots at %d per ciphertext, want %d", adaptive, got, rootSlots, plan.capacity, want)
		}
		cfg.MaxDepth = 3
		_, s = trainFed(t, parts, cfg)
		st := s.Stats()
		slots[i], decryptions[i] = st.packedSlots.Load(), s.Crypto().Decryptions()
		if decryptions[i] != st.packedCts.Load() || st.PackFill() > float64(plan.capacity) {
			t.Errorf("AdaptivePacking=%v: %d decryptions of %d shipped ciphertexts, %.2f slots each", adaptive, decryptions[i], st.packedCts.Load(), st.PackFill())
		}
	}
	if slots[0] >= slots[1]/2 || decryptions[0] >= decryptions[1] {
		t.Errorf("occupancy mask: %d slots in %d ciphertexts; all bins: %d in %d", slots[0], decryptions[0], slots[1], decryptions[1])
	}
}
