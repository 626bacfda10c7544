package core

import (
	"bytes"
	"math"
	"testing"
)

// TestHistogramSubtractionEquivalence: deriving the larger sibling's
// histogram as parent − child on Party B must produce byte for byte the
// model that building both children does (integer arithmetic is exact,
// and a power of the encoding base never changes a decoded float).
func TestHistogramSubtractionEquivalence(t *testing.T) {
	_, parts := twoPartyData(t, 500, 8, 5, 0.6, false, 61)
	off := quickConfig(SchemeMock)
	off.Trees = 3
	off.MaxDepth = 4
	off.HistogramSubtraction = false
	on := off
	on.HistogramSubtraction = true

	var models [2]bytes.Buffer
	for i, cfg := range []Config{off, on} {
		m, _ := trainFed(t, parts, cfg)
		if err := m.Save(&models[i]); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(models[0].Bytes(), models[1].Bytes()) {
		t.Fatal("histogram subtraction changed the model bytes")
	}
}

// TestHistogramSubtractionWorksUnderPaillier checks the subtraction path
// under the real cryptosystem and that it produces the identical model.
func TestHistogramSubtractionWorksUnderPaillier(t *testing.T) {
	_, parts := twoPartyData(t, 250, 4, 3, 1, true, 62)
	cfg := quickConfig(SchemePaillier)
	cfg.Trees = 1
	cfg.MaxDepth = 3
	cfg.HistogramSubtraction = true
	m, s := trainFed(t, parts, cfg)
	if s.Stats().SplitsByA()+s.Stats().SplitsByB() == 0 {
		t.Fatal("no splits")
	}
	// Sanity: the model still predicts and matches the non-subtraction
	// run exactly.
	cfg2 := cfg
	cfg2.HistogramSubtraction = false
	m2, _ := trainFed(t, parts, cfg2)
	a, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m2.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("paillier subtraction model differs")
		}
	}
}

// TestHistogramSubtractionWithOptimisticDirty: dirty-node redo must
// compose with derivation (the aborted pair's one task stops, and the
// re-made children derive from the parent B still holds).
func TestHistogramSubtractionWithOptimisticDirty(t *testing.T) {
	_, parts := twoPartyData(t, 500, 14, 2, 1, true, 63)
	seq := quickConfig(SchemeMock)
	seq.Trees = 3
	seq.OptimisticSplit = false
	seq.HistogramSubtraction = true
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
			t.Fatal("subtraction + optimistic dirty handling diverged")
		}
	}
}
