package he

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// The cross-backend conformance suite: every registered backend — the
// lifted scalar schemes and the lane-packed ones — runs the same scalar
// contract, vector contract, hostile-input, and signed-range gates via
// subtests, so a future backend gets the whole battery by registering.

const (
	confBits     = 256
	confSlots    = 3
	confLaneBits = 40
	confHeadroom = 12
)

// confBackend is one backend under test: the private side plus a public
// side built from the private side's key material, the way a passive
// party would build it at session setup.
type confBackend struct {
	dec VecDecryptor
	pub Backend
}

func conformanceBackends(t *testing.T) map[string]confBackend {
	t.Helper()
	out := map[string]confBackend{}
	for _, name := range Names() {
		p := Params{Bits: confBits, Slots: confSlots, LaneBits: confLaneBits, Headroom: confHeadroom}
		dec, err := OpenDecryptor(name, p)
		if err != nil {
			t.Fatalf("%s: OpenDecryptor: %v", name, err)
		}
		pp := p
		if Family(name) == "paillier" {
			pp.N = dec.N()
		}
		pub, err := Open(name, pp)
		if err != nil {
			t.Fatalf("%s: Open: %v", name, err)
		}
		out[name] = confBackend{dec: dec, pub: pub}
	}
	return out
}

func TestRegistryLists(t *testing.T) {
	for _, name := range []string{"paillier", "mock", "paillier-batched", "mock-batched"} {
		if !Registered(name) {
			t.Errorf("backend %s not registered", name)
		}
	}
	if Batched("paillier") || Batched("mock") {
		t.Error("scalar backends must not report batched")
	}
	if !Batched("paillier-batched") || !Batched("mock-batched") {
		t.Error("lane-packed backends must report batched")
	}
	if Family("paillier-batched") != "paillier" || Family("mock-batched") != "mock" {
		t.Error("batched backends must report their scheme family")
	}
	if _, err := Open("no-such-backend", Params{}); err == nil {
		t.Fatal("unknown backend must fail")
	} else if !bytes.Contains([]byte(err.Error()), []byte("mock-batched")) {
		t.Errorf("unknown-backend error should list registered names, got: %v", err)
	}
}

func TestBackendConformance(t *testing.T) {
	for name, b := range conformanceBackends(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("metadata", func(t *testing.T) { testBackendMetadata(t, name, b) })
			t.Run("scalar-contract", func(t *testing.T) { testScalarContract(t, b) })
			t.Run("vector-roundtrip", func(t *testing.T) { testVectorRoundTrip(t, b) })
			t.Run("vector-accumulate", func(t *testing.T) { testVectorAccumulate(t, b) })
			t.Run("vector-sub", func(t *testing.T) { testVectorSub(t, b) })
			t.Run("vector-marshal", func(t *testing.T) { testVectorMarshal(t, b) })
			t.Run("hostile-input", func(t *testing.T) { testHostileInput(t, b) })
			t.Run("signed-edges", func(t *testing.T) { testSignedEdges(t, b.dec) })
			t.Run("modular-edges", func(t *testing.T) { testModularEdges(t, b) })
		})
	}
}

func testBackendMetadata(t *testing.T, name string, b confBackend) {
	for _, be := range []Backend{b.dec, b.pub} {
		if be.BackendName() != name {
			t.Errorf("BackendName = %q, want %q", be.BackendName(), name)
		}
		if be.Name() != Family(name) {
			t.Errorf("Name (scheme family) = %q, want %q", be.Name(), Family(name))
		}
		if be.Slots() < 1 {
			t.Errorf("Slots = %d", be.Slots())
		}
		if be.Headroom() < 0 || be.LaneBits() <= be.Headroom() {
			t.Errorf("lane geometry: laneBits=%d headroom=%d", be.LaneBits(), be.Headroom())
		}
		if be.Slots()*be.LaneBits() > be.Bits() {
			t.Errorf("%d lanes of %d bits exceed %d-bit plaintexts", be.Slots(), be.LaneBits(), be.Bits())
		}
		if Batched(name) != (be.Slots() > 1) {
			t.Errorf("Batched(%s)=%v but Slots=%d", name, Batched(name), be.Slots())
		}
		if be.Base() == nil {
			t.Error("Base() must return the wrapped scheme")
		}
		if be.VecCiphertextBytes() <= 0 {
			t.Errorf("VecCiphertextBytes = %d", be.VecCiphertextBytes())
		}
	}
	if b.pub.Slots() != b.dec.Slots() || b.pub.LaneBits() != b.dec.LaneBits() {
		t.Error("public and private sides disagree on lane geometry")
	}
}

// testScalarContract is the pre-existing scheme contract: every backend
// still speaks the scalar interface.
func testScalarContract(t *testing.T, b confBackend) {
	d := b.dec
	enc := func(v int64) Ciphertext {
		m := big.NewInt(v)
		if m.Sign() < 0 {
			m.Add(m, d.N())
		}
		ct, err := b.pub.Encrypt(m)
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", v, err)
		}
		return ct
	}
	dec := func(ct Ciphertext) int64 {
		m, err := d.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		return Signed(d, m).Int64()
	}
	if got := dec(b.pub.Add(enc(1000), enc(-234))); got != 766 {
		t.Errorf("Add: got %d, want 766", got)
	}
	sub, err := b.pub.Sub(enc(100), enc(42))
	if err != nil {
		t.Fatalf("Sub: %v", err)
	}
	if got := dec(sub); got != 58 {
		t.Errorf("Sub: got %d, want 58", got)
	}
	if got := dec(b.pub.MulScalar(enc(21), big.NewInt(-2))); got != -42 {
		t.Errorf("MulScalar: got %d, want -42", got)
	}
	acc := b.pub.EncryptZero()
	for i := int64(1); i <= 5; i++ {
		acc = b.pub.AddInto(acc, enc(i))
	}
	if got := dec(acc); got != 15 {
		t.Errorf("AddInto chain: got %d, want 15", got)
	}
	raw := b.pub.Marshal(enc(777))
	back, err := d.Unmarshal(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got := dec(back); got != 777 {
		t.Errorf("marshal round trip: got %d, want 777", got)
	}
}

// maxLane is the widest legal lane value: 2^(laneBits−headroom) − 1,
// clamped to N−1 for 1-slot backends whose lane is the whole plaintext
// space.
func maxLane(b Backend) *big.Int {
	m := new(big.Int).Lsh(big.NewInt(1), uint(b.LaneBits()-b.Headroom()))
	m.Sub(m, big.NewInt(1))
	if top := new(big.Int).Sub(b.N(), big.NewInt(1)); m.Cmp(top) > 0 {
		return top
	}
	return m
}

func testVectorRoundTrip(t *testing.T, b confBackend) {
	lanes := make([]*big.Int, b.pub.Slots())
	for i := range lanes {
		lanes[i] = big.NewInt(int64(i)*1000 + 1)
	}
	lanes[0] = maxLane(b.pub) // widest legal lane value
	v, err := b.pub.EncryptVec(lanes)
	if err != nil {
		t.Fatalf("EncryptVec: %v", err)
	}
	got, err := b.dec.DecryptVec(v)
	if err != nil {
		t.Fatalf("DecryptVec: %v", err)
	}
	if len(got) != b.dec.Slots() {
		t.Fatalf("DecryptVec returned %d lanes, want %d", len(got), b.dec.Slots())
	}
	for i, want := range lanes {
		if got[i].Cmp(want) != 0 {
			t.Errorf("lane %d: got %v, want %v", i, got[i], want)
		}
	}
	// Partial vectors: missing trailing lanes decrypt to zero.
	v, err = b.pub.EncryptVec(lanes[:1])
	if err != nil {
		t.Fatalf("EncryptVec(partial): %v", err)
	}
	got, err = b.dec.DecryptVec(v)
	if err != nil {
		t.Fatalf("DecryptVec(partial): %v", err)
	}
	if got[0].Cmp(lanes[0]) != 0 {
		t.Errorf("partial lane 0: got %v, want %v", got[0], lanes[0])
	}
	for i := 1; i < len(got); i++ {
		if got[i].Sign() != 0 {
			t.Errorf("missing lane %d decrypted to %v, want 0", i, got[i])
		}
	}
}

func testVectorAccumulate(t *testing.T, b confBackend) {
	// Sum well past a single lane's value width: the headroom (or full
	// plaintext space for 1-slot backends) must absorb it without lanes
	// bleeding into each other.
	const adds = 100
	slots := b.pub.Slots()
	want := make([]*big.Int, slots)
	for i := range want {
		want[i] = new(big.Int)
	}
	acc := b.pub.EncryptZeroVec()
	for k := 0; k < adds; k++ {
		lanes := make([]*big.Int, slots)
		for i := range lanes {
			lanes[i] = big.NewInt(int64(k*slots + i + 1))
			want[i].Add(want[i], lanes[i])
		}
		v, err := b.pub.EncryptVec(lanes)
		if err != nil {
			t.Fatalf("EncryptVec: %v", err)
		}
		acc = b.pub.AddVecInto(acc, v)
	}
	got, err := b.dec.DecryptVec(acc)
	if err != nil {
		t.Fatalf("DecryptVec: %v", err)
	}
	for i := range want {
		if got[i].Cmp(want[i]) != 0 {
			t.Errorf("lane %d: accumulated %v, want %v", i, got[i], want[i])
		}
	}
}

func testVectorSub(t *testing.T, b confBackend) {
	slots := b.pub.Slots()
	hi := make([]*big.Int, slots)
	lo := make([]*big.Int, slots)
	for i := range hi {
		hi[i] = big.NewInt(int64(1000 + i*7))
		lo[i] = big.NewInt(int64(i * 3))
	}
	a, err := b.pub.EncryptVec(hi)
	if err != nil {
		t.Fatal(err)
	}
	c, err := b.pub.EncryptVec(lo)
	if err != nil {
		t.Fatal(err)
	}
	diff, err := b.pub.SubVec(a, c)
	if err != nil {
		t.Fatalf("SubVec: %v", err)
	}
	got, err := b.dec.DecryptVec(diff)
	if err != nil {
		t.Fatalf("DecryptVec: %v", err)
	}
	for i := range hi {
		want := new(big.Int).Sub(hi[i], lo[i])
		if got[i].Cmp(want) != 0 {
			t.Errorf("lane %d: got %v, want %v", i, got[i], want)
		}
	}
}

func testVectorMarshal(t *testing.T, b confBackend) {
	lanes := []*big.Int{big.NewInt(123456)}
	v, err := b.pub.EncryptVec(lanes)
	if err != nil {
		t.Fatal(err)
	}
	raw := b.pub.MarshalVec(v)
	if len(raw) == 0 {
		t.Fatal("MarshalVec returned empty")
	}
	if len(raw) > b.pub.VecCiphertextBytes() {
		t.Errorf("marshaled %d bytes, accounting says %d", len(raw), b.pub.VecCiphertextBytes())
	}
	back, err := b.dec.UnmarshalVec(raw)
	if err != nil {
		t.Fatalf("UnmarshalVec: %v", err)
	}
	got, err := b.dec.DecryptVec(back)
	if err != nil {
		t.Fatal(err)
	}
	if got[0].Cmp(lanes[0]) != 0 {
		t.Errorf("marshal round trip: got %v, want %v", got[0], lanes[0])
	}
}

func testHostileInput(t *testing.T, b confBackend) {
	// Too many lanes.
	tooMany := make([]*big.Int, b.pub.Slots()+1)
	for i := range tooMany {
		tooMany[i] = big.NewInt(1)
	}
	if _, err := b.pub.EncryptVec(tooMany); err == nil {
		t.Error("EncryptVec must reject more lanes than slots")
	}
	// Empty vector.
	if _, err := b.pub.EncryptVec(nil); err == nil {
		t.Error("EncryptVec must reject zero lanes")
	}
	// Negative lane.
	if _, err := b.pub.EncryptVec([]*big.Int{big.NewInt(-1)}); err == nil {
		t.Error("EncryptVec must reject negative lane values")
	}
	// A lane value one bit past the headroom bound.
	over := new(big.Int).Add(maxLane(b.pub), big.NewInt(1))
	if b.pub.Headroom() > 0 {
		if _, err := b.pub.EncryptVec([]*big.Int{over}); err == nil {
			t.Error("EncryptVec must reject lane values wider than laneBits-headroom")
		}
	}
	// Out-of-range wire bytes must be rejected by UnmarshalVec.
	huge := make([]byte, 4*confBits/8)
	for i := range huge {
		huge[i] = 0xFF
	}
	if _, err := b.pub.UnmarshalVec(huge); err == nil {
		t.Error("UnmarshalVec must reject out-of-range ciphertext bytes")
	}
	// Lane-layout overflow must surface at DecryptVec, not corrupt
	// neighbouring lanes silently.
	if b.dec.Slots() > 1 {
		wide := new(big.Int).Lsh(big.NewInt(1), uint(b.dec.Slots()*b.dec.LaneBits()))
		ct, err := b.pub.Encrypt(wide)
		if err == nil {
			if _, err := b.dec.DecryptVec(vecCt{ct}); err == nil {
				t.Error("DecryptVec must reject plaintexts overflowing the lane layout")
			}
		}
	}
}

// testModularEdges pins Add, AddInto and Sub to arithmetic modulo N on the
// operands where a one-step reduction can go wrong — 0, N−1, sums of
// exactly N and of 2N−2, differences of −(N−1) — and on random residues,
// and checks that neither the fresh nor the in-place form shares storage
// with an operand.
func testModularEdges(t *testing.T, b confBackend) {
	n := b.dec.N()
	top := new(big.Int).Sub(n, big.NewInt(1))
	half := new(big.Int).Rsh(n, 1)
	operands := []*big.Int{big.NewInt(0), big.NewInt(1), half, new(big.Int).Sub(n, half), top}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		operands = append(operands, new(big.Int).Rand(rng, n))
	}
	enc := func(m *big.Int) Ciphertext {
		ct, err := b.pub.Encrypt(m)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		return ct
	}
	dec := func(ct Ciphertext) *big.Int {
		m, err := b.dec.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		return m
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, n) }
	for _, x := range operands {
		for _, y := range operands {
			cx, cy := enc(x), enc(y)
			sum := mod(new(big.Int).Add(x, y))
			if got := dec(b.pub.Add(cx, cy)); got.Cmp(sum) != 0 {
				t.Errorf("Add(%v, %v) = %v, want %v", x, y, got, sum)
			}
			diff, err := b.pub.Sub(cx, cy)
			if err != nil {
				t.Fatalf("Sub(%v, %v): %v", x, y, err)
			}
			if want := mod(new(big.Int).Sub(x, y)); dec(diff).Cmp(want) != 0 {
				t.Errorf("Sub(%v, %v) = %v, want %v", x, y, dec(diff), want)
			}
			// In place: the accumulator takes the sum, the addend keeps its
			// value, and accumulating again moves the addend no further.
			acc := b.pub.AddInto(b.pub.AddInto(b.pub.EncryptZero(), cx), cy)
			if got := dec(acc); got.Cmp(sum) != 0 {
				t.Errorf("AddInto(%v, %v) = %v, want %v", x, y, got, sum)
			}
			acc = b.pub.AddInto(acc, cy)
			if got, want := dec(acc), mod(new(big.Int).Add(sum, y)); got.Cmp(want) != 0 {
				t.Errorf("AddInto(%v + %v, %v) = %v, want %v", x, y, y, got, want)
			}
			if dec(cx).Cmp(x) != 0 || dec(cy).Cmp(y) != 0 {
				t.Fatalf("operands (%v, %v) read back as (%v, %v) after Add/Sub/AddInto", x, y, dec(cx), dec(cy))
			}
		}
	}
}

func testSignedEdges(t *testing.T, d VecDecryptor) {
	n := d.N()
	half := new(big.Int).Rsh(n, 1)
	cases := []struct {
		m    *big.Int
		want *big.Int
	}{
		{big.NewInt(0), big.NewInt(0)},
		{big.NewInt(1), big.NewInt(1)},
		{new(big.Int).Set(half), new(big.Int).Set(half)},
		{new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Sub(new(big.Int).Add(half, big.NewInt(1)), n)},
		{new(big.Int).Sub(n, big.NewInt(1)), big.NewInt(-1)},
	}
	for _, c := range cases {
		if got := Signed(d, c.m); got.Cmp(c.want) != 0 {
			t.Errorf("Signed(%v) = %v, want %v", c.m, got, c.want)
		}
	}
}

// TestSignedNoAlloc is the satellite-2 gate: mapping a non-negative
// plaintext through Signed must not allocate (the N/2 threshold is
// precomputed per scheme).
func TestSignedNoAlloc(t *testing.T) {
	s := NewMock(256)
	m := big.NewInt(12345)
	allocs := testing.AllocsPerRun(1000, func() {
		Signed(s, m)
	})
	if allocs != 0 {
		t.Fatalf("Signed allocates %.1f objects per non-negative call, want 0", allocs)
	}
}

// BenchmarkSigned measures the decrypt-loop helper; before the halfer
// precompute it allocated a fresh big.Int per call.
func BenchmarkSigned(b *testing.B) {
	s := NewMock(2048)
	m := big.NewInt(1 << 40)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Signed(s, m)
	}
}

// FuzzVecUnmarshal drives hostile bytes through every backend's
// UnmarshalVec: no input may panic, and whatever unmarshals must
// re-marshal stably.
func FuzzVecUnmarshal(f *testing.F) {
	mockB, err := NewBatched(NewMock(confBits), "mock-batched", confSlots, confLaneBits, confHeadroom)
	if err != nil {
		f.Fatal(err)
	}
	pd, err := NewPaillier(confBits, 0)
	if err != nil {
		f.Fatal(err)
	}
	pb, err := NewBatchedDecryptor(pd, "paillier-batched", confSlots, confLaneBits, confHeadroom)
	if err != nil {
		f.Fatal(err)
	}
	backends := []Backend{mockB, pb}
	if v, err := pb.EncryptVec([]*big.Int{big.NewInt(7), big.NewInt(9)}); err == nil {
		f.Add(pb.MarshalVec(v))
	}
	if v, err := mockB.EncryptVec([]*big.Int{big.NewInt(7)}); err == nil {
		f.Add(mockB.MarshalVec(v))
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 2*confBits/8))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, b := range backends {
			v, err := b.UnmarshalVec(data) // must not panic
			if err != nil {
				continue
			}
			raw := b.MarshalVec(v)
			v2, err := b.UnmarshalVec(raw)
			if err != nil {
				t.Fatalf("%s: re-unmarshal of marshaled ciphertext failed: %v", b.BackendName(), err)
			}
			if !bytes.Equal(raw, b.MarshalVec(v2)) {
				t.Fatalf("%s: unstable marshal round trip", b.BackendName())
			}
		}
	})
}
