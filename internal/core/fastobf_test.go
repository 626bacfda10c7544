package core

import (
	"bytes"
	"fmt"
	"math/big"
	"testing"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/he"
)

// TestFastObfuscationMatchesBaselineModel trains the same split with DJN
// fast obfuscation on and off: obfuscation only re-randomizes ciphertexts,
// so with the shared deterministic training order the two models must be
// byte-identical. This is the end-to-end equivalence check for the
// extension — any drift here means the fast path leaked into plaintexts.
func TestFastObfuscationMatchesBaselineModel(t *testing.T) {
	_, parts := twoPartyData(t, 300, 3, 3, 1, true, 11)

	fast := quickConfig(SchemePaillier)
	fast.FastObfuscation = true
	mFast, _ := trainFed(t, parts, fast)

	base := quickConfig(SchemePaillier)
	base.FastObfuscation = false
	mBase, _ := trainFed(t, parts, base)

	if !bytes.Equal(modelJSON(t, mFast), modelJSON(t, mBase)) {
		t.Error("fast-obfuscation model differs from baseline model")
	}
	// The shared test key must be back on the baseline path after the
	// fast session (partyb.setup disables it for baseline configs).
	if sharedKey.OwnerObfuscation() {
		t.Error("baseline session left fast obfuscation enabled on the shared key")
	}
}

// TestDecryptFeatureRejectsGarbage drives hostile histogram payloads
// through the active party's decrypt path — the enchist ingress a malicious
// passive party controls. Every case must surface an error, never a panic.
func TestDecryptFeatureRejectsGarbage(t *testing.T) {
	dec := testDecryptor(t)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(1))
	pairs, err := codec.PlanPairs(100, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	newB := func(packing bool) *activeParty {
		plan, err := planPacking(codec, pairs.W, packing)
		if err != nil {
			t.Fatal(err)
		}
		return &activeParty{cfg: quickConfig(SchemePaillier), dec: dec, codec: codec, pairs: pairs,
			plan: plan, featCounts: []int{2}, units: make(unitQueue, 2), stats: &Stats{}}
	}

	n := dec.N()
	n2 := new(big.Int).Mul(n, n)
	garbage := [][]byte{
		{0},        // zero: not a unit mod n²
		n2.Bytes(), // == n²
		new(big.Int).Add(n2, big.NewInt(3)).Bytes(),   // > n²
		bytes.Repeat([]byte{0xFF}, len(n2.Bytes())+4), // way out of range
	}

	for i, raw := range garbage {
		// One slot per ciphertext, and two slots packed into one.
		single := shipped{NodeHist{Node: 1, Packed: true,
			Feats: []FeatHist{{NumBins: 2, Occupied: []byte{1}}, {NumBins: 1, Occupied: []byte{0}}}}, [][]byte{raw}}
		if _, err := newB(false).unpackShipped(t, single); err == nil {
			t.Errorf("case %d: unpackNode accepted a garbage slot at one per ciphertext", i)
		}
		packed := shipped{NodeHist{Node: 1, Packed: true,
			Feats: []FeatHist{{NumBins: 2, Occupied: []byte{3}}, {NumBins: 1, Occupied: []byte{0}}}}, [][]byte{raw}}
		if _, err := newB(true).unpackShipped(t, packed); err == nil {
			t.Errorf("case %d: unpackNode accepted a garbage packed payload", i)
		}
	}
}

// TestPassivePartyAbortsOnTaskFailure: a background histogram task hitting
// an unrecoverable input error (fail) must notify B with MsgAbort and
// surface the error from run — never panic the process.
func TestPassivePartyAbortsOnTaskFailure(t *testing.T) {
	_, parts := twoPartyData(t, 30, 2, 2, 1, true, 73)
	in := chanTransport{ch: make(chan []byte, 16)}
	out := chanTransport{ch: make(chan []byte, 16)}
	l := NewLink(pairTransport{send: out.Send, recv: in.Receive})
	p := testPassive(t, parts[0], quickConfig(SchemeMock), l)

	done := make(chan error, 1)
	go func() {
		_, err := p.run()
		done <- err
	}()

	cause := fmt.Errorf("core: subtracting bin 3: ciphertext not invertible")
	p.fail(cause)
	p.fail(fmt.Errorf("secondary failure")) // only the first is kept

	// B is told to abort the session.
	got, err := NewLink(out).recv()
	if err != nil {
		t.Fatal(err)
	}
	ab, ok := got.(MsgAbort)
	if !ok {
		t.Fatalf("first message after fail = %T, want MsgAbort", got)
	}
	if ab.Party != 0 || ab.Reason != cause.Error() {
		t.Errorf("MsgAbort = %+v", ab)
	}

	// The run loop surfaces the recorded root cause once it unblocks.
	if err := NewLink(in).send(MsgTreeDone{}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil || err.Error() != cause.Error() {
		t.Errorf("run returned %v, want %v", err, cause)
	}
}

// TestPassivePartyRejectsHostileGradientExponent: exponents in the
// gradient stream index histogram slot rows; out-of-range values must be
// rejected at ingress as a session error, not panic deep in accumulation.
func TestPassivePartyRejectsHostileGradientExponent(t *testing.T) {
	_, parts := twoPartyData(t, 30, 2, 2, 1, true, 74)
	l, feed := drivenLink()
	p := testPassive(t, parts[0], quickConfig(SchemeMock), l)
	sender := NewLink(feed)
	if err := sender.send(MsgSetup{Scheme: SchemeMock, Bits: 512, BaseExp: 8, ExpSpread: 4, PairBits: 60, ShiftCt: setupShift(t, he.NewMock(512), 60)}); err != nil {
		t.Fatal(err)
	}
	if err := sender.send(MsgPairBatch{Tree: 0, Start: 0, Cts: [][]byte{{1}}, Exp: []int16{99}}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.run(); err == nil {
		t.Error("out-of-range gradient exponent accepted")
	}
}
