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
// builds it from MsgSetup. pubEncrypts lets the public side encrypt half
// the modular-edge operands; without it the key owner, the only party
// that encrypts in a session, encrypts them all.
type confScheme struct {
	dec         Decryptor
	pub         Scheme
	pubEncrypts bool
}

func confSchemes(t testing.TB) map[string]confScheme {
	t.Helper()
	pd, err := NewPaillier(confBits)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]confScheme{
		"paillier": {dec: pd, pub: NewPaillierPublic(paillier.NewPublicKey(pd.N())), pubEncrypts: true},
		"mock":     {dec: NewMock(confBits), pub: NewMock(confBits), pubEncrypts: true},
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
			t.Run("plaintext-range", func(t *testing.T) { testPlaintextRange(t, s) })
		})
	}
	// Once more at the paper's key size, where n, p² and q² are 2048-bit
	// moduli: the key owner's tables and the power-of-two SMul chain run
	// on the Montgomery kernel where the CPU has one. This decryptor has
	// fast obfuscation on and encrypts every operand, as Party B does, so
	// with the 256-bit run's r^n encryptions every Paillier encryption
	// path is covered. Only these cases run here: at this size an
	// operation takes milliseconds.
	t.Run("paillier-2048", func(t *testing.T) {
		pd, err := NewPaillier(2048)
		if err != nil {
			t.Fatal(err)
		}
		if err := pd.EnableFastObfuscation(); err != nil {
			t.Fatal(err)
		}
		pub := NewPaillierPublic(paillier.NewPublicKey(pd.N()))
		s := confScheme{dec: pd, pub: pub}
		t.Run("modular-edges", func(t *testing.T) { testModularEdges(t, s) })
		t.Run("plaintext-range", func(t *testing.T) { testPlaintextRange(t, s) })
		t.Run("unmarshal-forms", func(t *testing.T) { testUnmarshalForms(t, pd, pub) })
	})
}

// testUnmarshalForms: a passive party's Unmarshal hands a wire ciphertext
// over as the addend its HAdds take wherever the key has the digit form,
// while the key owner's keeps the canonical residue it decrypts; both
// marshal back to the wire bytes and decrypt alike.
func testUnmarshalForms(t *testing.T, d *PaillierDecryptor, pub *PaillierScheme) {
	ct, err := d.Encrypt(big.NewInt(41))
	if err != nil {
		t.Fatal(err)
	}
	raw := pub.Marshal(ct)
	own, err := d.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	wire, err := pub.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := own.(paillierCt); !ok {
		t.Errorf("key owner's Unmarshal returned %T, want the canonical form", own)
	}
	if _, ok := wire.(paillierAddend); ok != pub.pk.DigitForm() {
		t.Errorf("passive Unmarshal returned %T under DigitForm() = %v", wire, pub.pk.DigitForm())
	}
	for name, c := range map[string]Ciphertext{"owner": own, "passive": wire} {
		if !bytes.Equal(pub.Marshal(c), raw) {
			t.Errorf("%s: Unmarshal → Marshal changed the bytes", name)
		}
		if m, err := d.Decrypt(c); err != nil || m.Int64() != 41 {
			t.Errorf("%s: decrypts to %v, %v; want 41", name, m, err)
		}
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
// the fresh nor the in-place form shares storage with an operand. Each
// operand is encrypted once, alternately by the private and the public
// side (by the private side alone unless pubEncrypts), and must keep its
// ciphertext bytes through every pair. Its
// Unmarshaled copy must marshal back to those bytes, and accumulating the
// copies and accumulators into each other must give Add's bytes, as
// Party A accumulates the wire ciphertexts of its gradients. The
// protocol's power-of-two scalars — exponent alignment by 16 and the
// packing shift 2^114 — must multiply modulo N on every operand.
func testModularEdges(t *testing.T, s confScheme) {
	n := s.dec.N()
	top := new(big.Int).Sub(n, big.NewInt(1))
	half := new(big.Int).Rsh(n, 1)
	operands := []*big.Int{big.NewInt(0), big.NewInt(1), half, new(big.Int).Sub(n, half), top}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < 8; i++ {
		operands = append(operands, new(big.Int).Rand(rng, n))
	}
	dec := func(ct Ciphertext) *big.Int {
		m, err := s.dec.Decrypt(ct)
		if err != nil {
			t.Fatalf("Decrypt: %v", err)
		}
		return m
	}
	cts := make([]Ciphertext, len(operands))
	raws := make([][]byte, len(operands))
	for i, x := range operands {
		var enc Scheme = s.dec
		if i%2 == 1 && s.pubEncrypts {
			enc = s.pub
		}
		ct, err := enc.Encrypt(x)
		if err != nil {
			t.Fatalf("Encrypt(%v): %v", x, err)
		}
		if got := dec(ct); got.Cmp(x) != 0 {
			t.Fatalf("Encrypt(%v) decrypts to %v", x, got)
		}
		cts[i], raws[i] = ct, s.pub.Marshal(ct)
	}
	mod := func(v *big.Int) *big.Int { return v.Mod(v, n) }
	// Each operand as a passive party receives it: back through
	// Unmarshal, which must give the same bytes back.
	wire := make([]Ciphertext, len(raws))
	for i, raw := range raws {
		w, err := s.pub.Unmarshal(raw)
		if err != nil {
			t.Fatalf("Unmarshal(operand %v): %v", operands[i], err)
		}
		if !bytes.Equal(s.pub.Marshal(w), raw) {
			t.Fatalf("operand %v: Unmarshal → Marshal changed its bytes", operands[i])
		}
		wire[i] = w
	}
	for i, x := range operands {
		for j, y := range operands {
			cx, cy := cts[i], cts[j]
			// Accumulations of wire operands, and of accumulators into
			// each other and into a canonical ciphertext, must marshal
			// to Add's bytes: Add multiplies the canonical residues.
			want := s.pub.Marshal(s.pub.Add(cx, cy))
			accX := s.pub.AddInto(s.pub.EncryptZero(), wire[i])
			accY := s.pub.AddInto(s.pub.EncryptZero(), wire[j])
			if !bytes.Equal(s.pub.Marshal(accX), raws[i]) {
				t.Fatalf("0 + wire %v marshals to other bytes than the operand", x)
			}
			for name, got := range map[string]Ciphertext{
				"wire into accumulator":        s.pub.AddInto(s.pub.AddInto(s.pub.EncryptZero(), wire[i]), wire[j]),
				"accumulator into accumulator": s.pub.AddInto(accX, accY),
				"accumulator into canonical":   s.pub.AddInto(s.pub.Add(cx, s.pub.EncryptZero()), s.pub.AddInto(s.pub.EncryptZero(), wire[j])),
			} {
				if !bytes.Equal(s.pub.Marshal(got), want) {
					t.Errorf("%s (%v, %v): bytes differ from Add's", name, x, y)
				}
			}
			if !bytes.Equal(s.pub.Marshal(accY), raws[j]) || !bytes.Equal(s.pub.Marshal(wire[i]), raws[i]) {
				t.Fatalf("(%v, %v): an addend or a merged accumulator changed", x, y)
			}
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
			if !bytes.Equal(s.pub.Marshal(cx), raws[i]) || !bytes.Equal(s.pub.Marshal(cy), raws[j]) {
				t.Fatalf("operands (%v, %v) changed under Add/AddInto", x, y)
			}
		}
	}
	for i, x := range operands {
		for _, k := range []*big.Int{big.NewInt(16), new(big.Int).Lsh(big.NewInt(1), 114)} {
			want := mod(new(big.Int).Mul(x, k))
			if got := dec(s.pub.MulScalar(cts[i], k)); got.Cmp(want) != 0 {
				t.Errorf("MulScalar(%v, %v) = %v, want %v", x, k, got, want)
			}
		}
		if !bytes.Equal(s.pub.Marshal(cts[i]), raws[i]) {
			t.Fatalf("operand %v changed under MulScalar", x)
		}
	}
}

// testPlaintextRange: Encrypt refuses a plaintext outside [0, N) on both
// sides instead of reducing it — Encrypt(−1) must not decrypt to N−1,
// nor Encrypt(N) to 0 or Encrypt(N+5) to 5.
func testPlaintextRange(t *testing.T, s confScheme) {
	n := s.dec.N()
	for _, sc := range []Scheme{s.dec, s.pub} {
		for name, m := range map[string]*big.Int{
			"-1":  big.NewInt(-1),
			"N":   new(big.Int).Set(n),
			"N+5": new(big.Int).Add(n, big.NewInt(5)),
		} {
			if ct, err := sc.Encrypt(m); err == nil {
				got, _ := s.dec.Decrypt(ct)
				t.Errorf("%T: Encrypt(%s) succeeded (decrypts to %v), want an error", sc, name, Signed(s.dec, got))
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
