package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"vf2boost/internal/metrics"
)

// vecQuickConfig is quickConfig switched onto a slot-batched backend.
// Packing is left enabled to prove the engine disables it itself in vec
// mode (the two layouts are mutually exclusive).
func vecQuickConfig(backend string) Config {
	var cfg Config
	switch backend {
	case "mock-batched":
		cfg = quickConfig(SchemeMock)
	default:
		cfg = quickConfig(SchemePaillier)
	}
	cfg.HEBackend = backend
	return cfg
}

// TestVecMockExactParity: with a single exponent the scalar encoding is
// round(v·B^e) at the same fixed exponent lane encoding uses, and both
// paths accumulate in exact modular arithmetic — so the lane-packed
// protocol must reproduce the scalar model bit for bit.
func TestVecMockExactParity(t *testing.T) {
	_, parts := twoPartyData(t, 500, 5, 4, 1, true, 21)
	scalar := quickConfig(SchemeMock)
	scalar.ExpSpread = 1
	vec := vecQuickConfig("mock-batched")
	vec.ExpSpread = 1

	mS, _ := trainFed(t, parts, scalar)
	mV, _ := trainFed(t, parts, vec)
	a, err := mS.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mV.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lane-packed model diverges from scalar at row %d: %g vs %g", i, b[i], a[i])
		}
	}
}

// TestVecBackendMatrix sweeps the protocol features that interact with
// the vectorized layout: sibling derivation (per-bin lane sums on B) and the
// optimistic schedule (aborted vec tasks). Every combination must produce
// the same model.
func TestVecBackendMatrix(t *testing.T) {
	_, parts := twoPartyData(t, 400, 8, 3, 0.7, false, 22)
	base := vecQuickConfig("mock-batched")
	base.OptimisticSplit = false
	base.HistogramSubtraction = false
	ref, _ := trainFed(t, parts, base)
	refMargins, err := ref.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}

	for mask := 1; mask < 4; mask++ {
		cfg := base
		cfg.OptimisticSplit = mask&1 != 0
		cfg.HistogramSubtraction = mask&2 != 0
		m, _ := trainFed(t, parts, cfg)
		margins, err := m.PredictAll(parts)
		if err != nil {
			t.Fatal(err)
		}
		for i := range margins {
			if math.Abs(margins[i]-refMargins[i]) > 1e-9 {
				t.Fatalf("vec protocol mask %02b changed the model at row %d: %g vs %g",
					mask, i, margins[i], refMargins[i])
			}
		}
	}
}

// TestVecAUCParity is the acceptance gate: the lane-packed protocol with
// the default (obfuscated, spread-4 scalar) baseline must land on the
// same model quality even though lane encoding fixes the exponent.
func TestVecAUCParity(t *testing.T) {
	joined, parts := twoPartyData(t, 1000, 6, 5, 1, true, 23)
	scalar := quickConfig(SchemeMock)
	scalar.Trees = 8
	vec := vecQuickConfig("mock-batched")
	vec.Trees = 8

	mS, _ := trainFed(t, parts, scalar)
	mV, _ := trainFed(t, parts, vec)
	marS, err := mS.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	marV, err := mV.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	aucS, err := metrics.AUC(marS, joined.Labels)
	if err != nil {
		t.Fatal(err)
	}
	aucV, err := metrics.AUC(marV, joined.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(aucS-aucV) > 0.005 {
		t.Errorf("lane-packed AUC %g diverges from scalar %g", aucV, aucS)
	}
}

// TestVecPaillierMatchesMock: the Paillier and mock batched backends run
// the same exact integer arithmetic, so their models must be identical —
// the vec-mode analogue of TestSchemeEquivalence.
func TestVecPaillierMatchesMock(t *testing.T) {
	_, parts := twoPartyData(t, 250, 4, 3, 1, true, 24)
	cfgP := vecQuickConfig("paillier-batched")
	cfgP.Trees = 2
	cfgM := vecQuickConfig("mock-batched")
	cfgM.Trees = 2
	mP, sP := trainFed(t, parts, cfgP)
	mM, _ := trainFed(t, parts, cfgM)
	a, err := mP.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := mM.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("paillier-batched and mock-batched diverge at row %d: %g vs %g", i, a[i], b[i])
		}
	}
	// The vectorized stream must actually have been used: at 256-bit one
	// ciphertext carries a whole ⟨g,h⟩ pair, so the rounds encrypt at most
	// half of the 2n ciphertexts per tree the scalar stream needs.
	n := int64(parts[0].Rows())
	if enc := sP.Crypto().Encryptions(); enc >= 2*n*int64(cfgP.Trees) {
		t.Errorf("vec session encrypted %d ciphertexts, scalar would need %d", enc, 2*n*int64(cfgP.Trees))
	}
}

// TestScalarBackendByteIdentity: naming a 1-slot backend explicitly must
// be byte-identical to the legacy (empty HEBackend) configuration.
func TestScalarBackendByteIdentity(t *testing.T) {
	_, parts := twoPartyData(t, 200, 3, 3, 1, true, 25)
	legacy := quickConfig(SchemeMock)
	named := quickConfig(SchemeMock)
	named.HEBackend = "mock"

	mL, _ := trainFed(t, parts, legacy)
	mN, _ := trainFed(t, parts, named)
	var bufL, bufN bytes.Buffer
	if err := mL.Save(&bufL); err != nil {
		t.Fatal(err)
	}
	if err := mN.Save(&bufN); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufL.Bytes(), bufN.Bytes()) {
		t.Fatal("explicit 1-slot backend changed the serialized model")
	}
}

// TestUnknownBackendRejected: config validation must fail fast on
// unregistered names (listing the registry) and on family mismatches.
func TestUnknownBackendRejected(t *testing.T) {
	_, parts := twoPartyData(t, 50, 2, 2, 1, true, 26)
	cfg := quickConfig(SchemeMock)
	cfg.HEBackend = "nope"
	_, err := NewSession(parts, cfg)
	if err == nil {
		t.Fatal("unknown backend accepted")
	}
	if !strings.Contains(err.Error(), "mock-batched") {
		t.Errorf("error does not list registered backends: %v", err)
	}
	cfg.HEBackend = "paillier-batched" // family paillier, scheme mock
	if _, err := NewSession(parts, cfg); err == nil {
		t.Fatal("family mismatch accepted")
	}
}

// TestPeerBackendRejection: a passive party must refuse a negotiated
// backend it does not have registered, or whose geometry is degenerate,
// before accepting any ciphertext.
func TestPeerBackendRejection(t *testing.T) {
	p := &passiveParty{index: 0}
	err := p.setupBackend(MsgSetup{Scheme: "mock", Bits: 256, Backend: "exotic-ckks"})
	if err == nil {
		t.Fatal("unregistered negotiated backend accepted")
	}
	if !strings.Contains(err.Error(), "registered:") {
		t.Errorf("rejection does not list the local registry: %v", err)
	}
	if err := p.setupBackend(MsgSetup{Scheme: "paillier", Bits: 256, Backend: "mock-batched", Slots: 2, LaneBits: 66, Headroom: 32}); err == nil {
		t.Fatal("family mismatch accepted")
	}
	if err := p.setupBackend(MsgSetup{Scheme: "mock", Bits: 256, Backend: "mock", Slots: 1}); err == nil {
		t.Fatal("scalar backend over vectorized setup accepted")
	}
	if err := p.setupBackend(MsgSetup{Scheme: "mock", Bits: 256, Backend: "mock-batched", Slots: 3, LaneBits: 40, Headroom: 8}); err == nil {
		t.Fatal("odd slot count accepted")
	}
	if err := p.setupBackend(MsgSetup{Scheme: "mock", Bits: 256, Backend: "mock-batched", Slots: 2, LaneBits: 8, Headroom: 8}); err == nil {
		t.Fatal("laneBits <= headroom accepted")
	}
}
