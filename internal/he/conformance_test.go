package he

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"

	"vf2boost/internal/paillier"
)

// The cross-scheme conformance suite: both schemes — Paillier and the
// VF-MOCK pass-through — run the same metadata, scalar contract,
// hostile-input, signed-range and modular-arithmetic gates via subtests,
// so a future scheme gets the whole battery by joining confSchemes.

const confBits = 256

// confScheme is one scheme under test: the private side plus a public side
// built from the private side's key material, the way a passive party
// builds it from MsgSetup.
type confScheme struct {
	dec Decryptor
	pub Scheme
}

func confSchemes(t testing.TB) map[string]confScheme {
	t.Helper()
	pd, err := NewPaillier(confBits, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(pd.Close)
	return map[string]confScheme{
		"paillier": {dec: pd, pub: NewPaillierPublic(paillier.NewPublicKey(pd.N()))},
		"mock":     {dec: NewMock(confBits), pub: NewMock(confBits)},
	}
}

func TestBackendConformance(t *testing.T) {
	for name, s := range confSchemes(t) {
		t.Run(name, func(t *testing.T) {
			t.Run("metadata", func(t *testing.T) { testMetadata(t, name, s) })
			t.Run("scalar-contract", func(t *testing.T) { testScalarContract(t, s) })
			t.Run("hostile-input", func(t *testing.T) { testHostileInput(t, s) })
			t.Run("signed-edges", func(t *testing.T) { testSignedEdges(t, s.dec) })
			t.Run("modular-edges", func(t *testing.T) { testModularEdges(t, s) })
		})
	}
}

// testMetadata: both sides name the same scheme and modulus, and a
// marshaled ciphertext fits the size the WAN shaper accounts for.
func testMetadata(t *testing.T, name string, s confScheme) {
	for _, sc := range []Scheme{s.dec, s.pub} {
		if sc.Name() != name {
			t.Errorf("Name = %q, want %q", sc.Name(), name)
		}
		top := new(big.Int).Sub(sc.N(), big.NewInt(1))
		if sc.Bits() != confBits || top.BitLen() > confBits {
			t.Errorf("Bits = %d, plaintexts up to %d bits; want %d", sc.Bits(), top.BitLen(), confBits)
		}
		ct, err := sc.Encrypt(top)
		if err != nil {
			t.Fatal(err)
		}
		if raw := sc.Marshal(ct); len(raw) == 0 || len(raw) > sc.CiphertextBytes() {
			t.Errorf("marshaled %d bytes, accounting says %d", len(raw), sc.CiphertextBytes())
		}
	}
	if s.pub.N().Cmp(s.dec.N()) != 0 {
		t.Error("public and private sides disagree on the modulus")
	}
}

// testScalarContract: HAdd, SMul, accumulation and the marshal round trip,
// with the public side encrypting and the private side decrypting.
func testScalarContract(t *testing.T, s confScheme) {
	d := s.dec
	enc := func(v int64) Ciphertext {
		m := big.NewInt(v)
		if m.Sign() < 0 {
			m.Add(m, d.N())
		}
		ct, err := s.pub.Encrypt(m)
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
	if got := dec(s.pub.Add(enc(1000), enc(-234))); got != 766 {
		t.Errorf("Add: got %d, want 766", got)
	}
	if got := dec(s.pub.MulScalar(enc(21), big.NewInt(-2))); got != -42 {
		t.Errorf("MulScalar: got %d, want -42", got)
	}
	acc := s.pub.EncryptZero()
	for i := int64(1); i <= 5; i++ {
		acc = s.pub.AddInto(acc, enc(i))
	}
	if got := dec(acc); got != 15 {
		t.Errorf("AddInto chain: got %d, want 15", got)
	}
	raw := s.pub.Marshal(enc(777))
	back, err := d.Unmarshal(raw)
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got := dec(back); got != 777 {
		t.Errorf("marshal round trip: got %d, want 777", got)
	}
}

// testHostileInput: Unmarshal is the validation gate for every ciphertext
// arriving from the wire, on both sides.
func testHostileInput(t *testing.T, s confScheme) {
	huge := bytes.Repeat([]byte{0xFF}, 4*confBits/8)
	for _, sc := range []Scheme{s.dec, s.pub} {
		if _, err := sc.Unmarshal(huge); err == nil {
			t.Errorf("%T: Unmarshal accepted out-of-range ciphertext bytes", sc)
		}
	}
}

// testModularEdges pins Add and AddInto to arithmetic modulo N on the
// operands where a one-step reduction can go wrong — 0, N−1, sums of
// exactly N and of 2N−2 — and on random residues, and checks that neither
// the fresh nor the in-place form shares storage with an operand.
func testModularEdges(t *testing.T, s confScheme) {
	n := s.dec.N()
	top := new(big.Int).Sub(n, big.NewInt(1))
	half := new(big.Int).Rsh(n, 1)
	operands := []*big.Int{big.NewInt(0), big.NewInt(1), half, new(big.Int).Sub(n, half), top}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		operands = append(operands, new(big.Int).Rand(rng, n))
	}
	enc := func(m *big.Int) Ciphertext {
		ct, err := s.pub.Encrypt(m)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", m, err)
		}
		return ct
	}
	dec := func(ct Ciphertext) *big.Int {
		m, err := s.dec.Decrypt(ct)
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
			if got := dec(s.pub.Add(cx, cy)); got.Cmp(sum) != 0 {
				t.Errorf("Add(%v, %v) = %v, want %v", x, y, got, sum)
			}
			// In place: the accumulator takes the sum, the addend keeps its
			// value, and accumulating again moves the addend no further.
			acc := s.pub.AddInto(s.pub.AddInto(s.pub.EncryptZero(), cx), cy)
			if got := dec(acc); got.Cmp(sum) != 0 {
				t.Errorf("AddInto(%v, %v) = %v, want %v", x, y, got, sum)
			}
			acc = s.pub.AddInto(acc, cy)
			if got, want := dec(acc), mod(new(big.Int).Add(sum, y)); got.Cmp(want) != 0 {
				t.Errorf("AddInto(%v + %v, %v) = %v, want %v", x, y, y, got, want)
			}
			if dec(cx).Cmp(x) != 0 || dec(cy).Cmp(y) != 0 {
				t.Fatalf("operands (%v, %v) read back as (%v, %v) after Add/AddInto", x, y, dec(cx), dec(cy))
			}
		}
	}
}

func testSignedEdges(t *testing.T, d Decryptor) {
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

// TestSignedNoAlloc: mapping a non-negative plaintext through Signed must
// not allocate (the N/2 threshold is precomputed per scheme).
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

// FuzzUnmarshal drives hostile bytes through both schemes' Unmarshal, the
// validation gate for every ciphertext off the wire: no input may panic,
// and whatever unmarshals must re-marshal stably.
func FuzzUnmarshal(f *testing.F) {
	var schemes []Scheme
	all := confSchemes(f)
	for _, name := range []string{"paillier", "mock"} {
		s := all[name]
		schemes = append(schemes, s.pub)
		if ct, err := s.pub.Encrypt(big.NewInt(7)); err == nil {
			f.Add(s.pub.Marshal(ct))
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0x00})
	f.Add(bytes.Repeat([]byte{0xFF}, 2*confBits/8))
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, s := range schemes {
			ct, err := s.Unmarshal(data) // must not panic
			if err != nil {
				continue
			}
			raw := s.Marshal(ct)
			ct2, err := s.Unmarshal(raw)
			if err != nil {
				t.Fatalf("%s: re-unmarshal of marshaled ciphertext failed: %v", s.Name(), err)
			}
			if !bytes.Equal(raw, s.Marshal(ct2)) {
				t.Fatalf("%s: unstable marshal round trip", s.Name())
			}
		}
	})
}
