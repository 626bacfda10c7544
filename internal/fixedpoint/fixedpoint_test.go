package fixedpoint

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"vf2boost/internal/he"
)

func paillierCodec(t testing.TB, opts ...Option) (*Codec, *he.PaillierDecryptor) {
	t.Helper()
	dec := he.NewPaillierFromKey(testKey(t, 256), 0)
	return NewCodec(dec, append([]Option{WithSeed(1)}, opts...)...), dec
}

// cryptoRand adapts crypto/rand without importing it at every call site.
type cryptoRand struct{}

func (cryptoRand) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(rand.Intn(256))
	}
	return len(p), nil
}

func mockCodec(opts ...Option) (*Codec, *he.MockScheme) {
	m := he.NewMock(256)
	return NewCodec(m, append([]Option{WithSeed(1)}, opts...)...), m
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	c, _ := mockCodec()
	for _, v := range []float64{0, 1, -1, 0.5, -0.5, 3.14159, -2.71828, 1e-6, -1e-6, 12345.678, -98765.4321} {
		n, err := c.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%g): %v", v, err)
		}
		got := c.Decode(n)
		if math.Abs(got-v) > 1e-6*math.Max(1, math.Abs(v)) {
			t.Errorf("Decode(Encode(%g)) = %g", v, got)
		}
	}
}

func TestEncodeDecodePropertyMock(t *testing.T) {
	c, _ := mockCodec()
	f := func(v float64) bool {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e12 {
			return true
		}
		n, err := c.Encode(v)
		if err != nil {
			return false
		}
		got := c.Decode(n)
		return math.Abs(got-v) <= 1e-6*math.Max(1, math.Abs(v))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsNonFinite(t *testing.T) {
	c, _ := mockCodec()
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := c.Encode(v); err == nil {
			t.Errorf("Encode(%v) succeeded, want error", v)
		}
	}
}

func TestEncodeLargeValuesBigFloatPath(t *testing.T) {
	// Values beyond the int64 fast path take the exact big.Float route.
	c, _ := mockCodec()
	for _, v := range []float64{1e22, -1e22, 3.5e25} {
		n, err := c.EncodeAt(v, 12)
		if err != nil {
			t.Fatalf("EncodeAt(%g, 12): %v", v, err)
		}
		got := c.Decode(n)
		if math.Abs(got-v) > 1e-9*math.Abs(v) {
			t.Errorf("large-value round trip: %g -> %g", v, got)
		}
	}
}

func TestEncodeRejectsBeyondPlaintextSpace(t *testing.T) {
	m := he.NewMock(64)
	c := NewCodec(m, WithSeed(1))
	if _, err := c.EncodeAt(1e30, 12); err == nil {
		t.Error("value exceeding the 64-bit plaintext space accepted")
	}
}

func TestExponentObfuscationSpread(t *testing.T) {
	c, _ := mockCodec(WithExponents(8, 4))
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		seen[c.RandExp()] = true
	}
	if len(seen) != 4 {
		t.Errorf("exponent spread produced %d distinct values, want 4", len(seen))
	}
	for e := range seen {
		if e < 8 || e > 11 {
			t.Errorf("exponent %d outside [8,11]", e)
		}
	}
}

func TestDeterministicWithSpreadOne(t *testing.T) {
	c, _ := mockCodec(WithExponents(8, 1))
	for i := 0; i < 10; i++ {
		if e := c.RandExp(); e != 8 {
			t.Fatalf("RandExp with spread 1 = %d, want 8", e)
		}
	}
}

func TestEncryptedAddMixedExponentsPaillier(t *testing.T) {
	c, dec := paillierCodec(t)
	ea, err := c.EncryptValue(2.5)
	if err != nil {
		t.Fatal(err)
	}
	eb, err := c.EncryptValue(-1.75)
	if err != nil {
		t.Fatal(err)
	}
	sum := c.AddEnc(ea, eb)
	got, err := c.Decrypt(dec, sum)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.75) > 1e-6 {
		t.Errorf("encrypted add = %g, want 0.75", got)
	}
}

func TestAddEncIntoAccumulation(t *testing.T) {
	c, dec := paillierCodec(t)
	acc := c.EncryptZero()
	want := 0.0
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 25; i++ {
		v := rng.Float64()*4 - 2
		e, err := c.EncryptValue(v)
		if err != nil {
			t.Fatal(err)
		}
		c.AddEncInto(&acc, e)
		want += v
	}
	got, err := c.Decrypt(dec, acc)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-5 {
		t.Errorf("accumulated = %g, want %g", got, want)
	}
}

func TestPackUnpackRoundTripMock(t *testing.T) {
	m := he.NewMock(512)
	c := NewCodec(m, WithSeed(1))
	vals := []uint64{0, 1, 42, 1 << 40, (1 << 62) + 12345}
	cts := make([]he.Ciphertext, len(vals))
	for i, v := range vals {
		ct, err := m.Encrypt(new(big.Int).SetUint64(v))
		if err != nil {
			t.Fatal(err)
		}
		cts[i] = ct
	}
	packed, err := c.Pack(cts, 64)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := m.Decrypt(packed)
	if err != nil {
		t.Fatal(err)
	}
	got := Unpack(plain, 64, len(vals))
	for i, v := range vals {
		if got[i].Uint64() != v {
			t.Errorf("slot %d = %v, want %d", i, got[i], v)
		}
	}
}

func TestPackUnpackPropertyPaillier(t *testing.T) {
	c, dec := paillierCodec(t)
	capTotal := PackCapacity(dec, 32)
	if capTotal < 2 {
		t.Fatalf("capacity %d too small for test", capTotal)
	}
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > capTotal {
			raw = raw[:capTotal]
		}
		cts := make([]he.Ciphertext, len(raw))
		for i, v := range raw {
			ct, err := dec.Encrypt(new(big.Int).SetUint64(uint64(v)))
			if err != nil {
				return false
			}
			cts[i] = ct
		}
		packed, err := c.Pack(cts, 32)
		if err != nil {
			return false
		}
		plain, err := dec.Decrypt(packed)
		if err != nil {
			return false
		}
		got := Unpack(plain, 32, len(raw))
		for i, v := range raw {
			if got[i].Uint64() != uint64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestPackRejectsOverCapacity(t *testing.T) {
	c, m := mockCodec()
	n := PackCapacity(m, 64) + 1
	cts := make([]he.Ciphertext, n)
	for i := range cts {
		cts[i] = m.EncryptZero()
	}
	if _, err := c.Pack(cts, 64); err == nil {
		t.Error("Pack over capacity succeeded, want error")
	}
	if _, err := c.Pack(nil, 64); err == nil {
		t.Error("Pack(nil) succeeded, want error")
	}
}

func TestPackCapacity(t *testing.T) {
	m := he.NewMock(2048)
	if got := PackCapacity(m, 64); got != 31 {
		t.Errorf("PackCapacity(2048, 64) = %d, want 31", got)
	}
	if got := PackCapacity(he.NewMock(64), 64); got != 1 {
		t.Errorf("PackCapacity(64, 64) = %d, want 1", got)
	}
}

func TestStatsCounting(t *testing.T) {
	c, _ := mockCodec()
	e1, _ := c.EncryptValue(1)
	e2, _ := c.EncryptValue(2)
	c.AddEnc(e1, e2)
	s := c.Stats()
	if s.Encryptions() != 2 {
		t.Errorf("Encryptions = %d, want 2", s.Encryptions())
	}
	if s.HAdds() < 1 {
		t.Errorf("HAdds = %d, want >= 1", s.HAdds())
	}
	s.Reset()
	if s.Encryptions() != 0 || s.HAdds() != 0 || s.Scalings() != 0 {
		t.Error("Reset did not zero counters")
	}
}

func TestDecodeShifted(t *testing.T) {
	c, _ := mockCodec()
	n, _ := c.EncodeAt(3.75, 8)
	if got := c.DecodeShifted(n.Man, 8); math.Abs(got-3.75) > 1e-9 {
		t.Errorf("DecodeShifted = %g, want 3.75", got)
	}
}

// TestFastObfuscationEquivalence encodes/encrypts/decrypts across signs and
// exponents with DJN fast obfuscation enabled and checks the results match
// the baseline path bit for bit after decryption — the obfuscator variant
// must be invisible above the he layer.
func TestFastObfuscationEquivalence(t *testing.T) {
	c, dec := paillierCodec(t)
	if err := dec.EnableFastObfuscation(); err != nil {
		t.Fatal(err)
	}
	// paillierCodec shares one cached private key across the package's
	// tests; restore baseline obfuscation so later tests see paper-exact
	// behavior.
	defer dec.DisableFastObfuscation()

	values := []float64{0, 1, -1, 0.5, -0.5, 3.14159, -1e-6, 12345.678, -98765.4321}
	for _, v := range values {
		// Encode once and push the same Num through the encrypted pipeline,
		// so any difference is attributable to the obfuscation variant alone
		// (not to the codec's per-call exponent randomization).
		n, err := c.Encode(v)
		if err != nil {
			t.Fatalf("Encode(%g): %v", v, err)
		}
		e, err := c.Encrypt(n)
		if err != nil {
			t.Fatalf("Encrypt(%g) under fast obfuscation: %v", v, err)
		}
		got, err := c.Decrypt(dec, e)
		if err != nil {
			t.Fatalf("Decrypt(%g): %v", v, err)
		}
		want := c.Decode(n) // exactly what the baseline path decrypts to
		if got != want {
			t.Errorf("fast-obfuscated %g decrypts to %g, baseline %g", v, got, want)
		}
	}

	// Homomorphic ops over fast-obfuscated ciphertexts, across exponent
	// alignment.
	a, err := c.EncryptValue(10.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.EncryptValue(3.5)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := c.Decrypt(dec, c.AddEnc(a, b))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sum-13.75) > 1e-6 {
		t.Errorf("AddEnc = %g, want 13.75", sum)
	}
}
