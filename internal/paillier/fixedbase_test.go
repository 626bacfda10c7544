package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// TestFixedBaseExpMatchesBigExp checks the windowed tables against
// math/big's general ladder across exponent widths, including the
// boundaries of the precomputed range and the fallback beyond it.
func TestFixedBaseExpMatchesBigExp(t *testing.T) {
	mod, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffc5", 16)
	base := big.NewInt(0xABCDEF)
	fb := NewFixedBase(base, mod, 96)
	rng := mrand.New(mrand.NewSource(11))
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(15),
		big.NewInt(16),
		new(big.Int).Lsh(one, 95), // top of the table range
		new(big.Int).Sub(new(big.Int).Lsh(one, 96), one), // all windows saturated
		new(big.Int).Lsh(one, 200),                       // beyond MaxBits: fallback
	}
	for i := 0; i < 50; i++ {
		exps = append(exps, new(big.Int).Rand(rng, new(big.Int).Lsh(one, 96)))
	}
	for _, x := range exps {
		want := new(big.Int).Exp(base, x, mod)
		if got := fb.Exp(x); got.Cmp(want) != 0 {
			t.Fatalf("Exp(%v) = %v, want %v", x, got, want)
		}
	}
	if got := fb.MaxBits(); got < 96 {
		t.Errorf("MaxBits = %d, want >= 96", got)
	}
}

// TestFastObfuscationDecryptsIdentically proves the DJN h^x obfuscators
// are drop-in: every plaintext round-trips exactly as under baseline
// obfuscation, across signs and magnitudes.
func TestFastObfuscationDecryptsIdentically(t *testing.T) {
	priv := testKey(t, 256)
	pk := NewPublicKey(priv.N) // fresh copy: don't mutate the cached key
	if pk.FastObfuscation() {
		t.Fatal("fast obfuscation enabled before EnableFastObfuscation")
	}
	if err := pk.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	if !pk.FastObfuscation() || pk.ObfuscationBase() == nil {
		t.Fatal("fast obfuscation not enabled")
	}
	if got := pk.ObfuscationBits(); got != DefaultObfuscationBits {
		t.Fatalf("ObfuscationBits = %d, want %d", got, DefaultObfuscationBits)
	}
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 1<<62 - 1} {
		m := big.NewInt(v)
		if v < 0 {
			m.Add(m, pk.N)
		}
		ct, err := pk.Encrypt(rand.Reader, m)
		if err != nil {
			t.Fatalf("Encrypt(%d) under fast obfuscation: %v", v, err)
		}
		got, err := priv.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("Decrypt(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("fast-obfuscated round trip of %d = %d", v, got)
		}
	}
	// Fast obfuscation must stay probabilistic.
	c1, _ := pk.Encrypt(rand.Reader, big.NewInt(5))
	c2, _ := pk.Encrypt(rand.Reader, big.NewInt(5))
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two fast-obfuscated encryptions of the same plaintext are identical")
	}
}

// TestFastObfuscationHomomorphismsPreserved runs HAdd/SMul over
// fast-obfuscated ciphertexts: the obfuscation variant must not disturb
// the algebra.
func TestFastObfuscationHomomorphismsPreserved(t *testing.T) {
	priv := testKey(t, 256)
	pk := NewPublicKey(priv.N)
	if err := pk.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	ca, err := pk.Encrypt(rand.Reader, big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := pk.Encrypt(rand.Reader, big.NewInt(58))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(pk.Add(ca, cb)); err != nil || v != 1058 {
		t.Errorf("Add = %d, %v; want 1058", v, err)
	}
	prod, err := pk.MulScalar(cb, big.NewInt(-3))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(prod); err != nil || v != -174 {
		t.Errorf("MulScalar = %d, %v; want -174", v, err)
	}
}

// TestSetObfuscationBaseValidation covers the passive party's ingress: a
// base from the wire is installed only when it is a unit in (1, n²).
func TestSetObfuscationBaseValidation(t *testing.T) {
	priv := testKey(t, 256)
	pk := NewPublicKey(priv.N)
	bad := []*big.Int{
		nil,
		big.NewInt(0),
		big.NewInt(-4),
		big.NewInt(1),
		new(big.Int).Set(pk.NSquared),
		new(big.Int).Add(pk.NSquared, one),
		new(big.Int).Mul(priv.p, big.NewInt(7)), // shares a factor with n
	}
	for i, h := range bad {
		if err := pk.SetObfuscationBase(h, 0); err == nil {
			t.Errorf("case %d: SetObfuscationBase(%v) accepted", i, h)
		}
		if pk.FastObfuscation() {
			t.Fatalf("case %d: invalid base left fast obfuscation enabled", i)
		}
	}
	// A genuine base derived by the key owner round-trips through the
	// passive install and produces decryptable ciphertexts.
	owner := NewPublicKey(priv.N)
	if err := owner.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	h := new(big.Int).SetBytes(owner.ObfuscationBase().Bytes()) // as shipped
	if err := pk.SetObfuscationBase(h, owner.ObfuscationBits()); err != nil {
		t.Fatalf("installing shipped base: %v", err)
	}
	ct, err := pk.Encrypt(rand.Reader, big.NewInt(777))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(ct); err != nil || v != 777 {
		t.Errorf("passive fast-obfuscated ciphertext = %d, %v; want 777", v, err)
	}
}

// TestObfuscationBitsBounded covers the hostile-ObfBits ingress: the
// exponent length arrives from the network in MsgSetup, and an unbounded
// value sizes the fixed-base tables (and a 2^expBits Lsh), so anything
// past the 2·|n| bound must be rejected before any allocation.
func TestObfuscationBitsBounded(t *testing.T) {
	priv := testKey(t, 256)
	owner := NewPublicKey(priv.N)
	if err := owner.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	h := owner.ObfuscationBase()

	pk := NewPublicKey(priv.N)
	hostile := []int{2*pk.Bits() + 1, 1 << 20, 1 << 30, int(^uint(0) >> 1)}
	for _, bits := range hostile {
		if err := pk.SetObfuscationBase(h, bits); err == nil {
			t.Errorf("SetObfuscationBase accepted expBits=%d", bits)
		}
		if pk.FastObfuscation() {
			t.Fatalf("expBits=%d left fast obfuscation enabled", bits)
		}
	}
	if err := NewPublicKey(priv.N).EnableFastObfuscation(rand.Reader, 1<<30); err == nil {
		t.Error("EnableFastObfuscation accepted expBits=1<<30")
	}
	// The bound itself is still accepted, and the installed key encrypts
	// decryptable ciphertexts.
	if err := pk.SetObfuscationBase(h, 2*pk.Bits()); err != nil {
		t.Fatalf("SetObfuscationBase at the bound rejected: %v", err)
	}
	ct, err := pk.Encrypt(rand.Reader, big.NewInt(55))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(ct); err != nil || v != 55 {
		t.Errorf("round trip at the bound = %d, %v; want 55", v, err)
	}
}

// TestDefaultObfuscationBitsFor pins the modulus-size → short-exponent
// mapping: twice the SP 800-57 symmetric-equivalent strength, so larger
// keys are not silently handed the 2048-bit margin.
func TestDefaultObfuscationBitsFor(t *testing.T) {
	cases := []struct{ mod, want int }{
		{256, 224}, {1024, 224}, {2048, 224},
		{3072, 256}, {4096, 256},
		{7680, 384}, {8192, 384},
		{15360, 512}, {16384, 512},
	}
	for _, c := range cases {
		if got := DefaultObfuscationBitsFor(c.mod); got != c.want {
			t.Errorf("DefaultObfuscationBitsFor(%d) = %d, want %d", c.mod, got, c.want)
		}
	}
	// The zero-value path through the enable call resolves to the same
	// mapping.
	priv := testKey(t, 256)
	pk := NewPublicKey(priv.N)
	if err := pk.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	if got, want := pk.ObfuscationBits(), DefaultObfuscationBitsFor(pk.Bits()); got != want {
		t.Errorf("ObfuscationBits = %d, want %d", got, want)
	}
}

func TestDisableFastObfuscation(t *testing.T) {
	priv := testKey(t, 256)
	pk := NewPublicKey(priv.N)
	if err := pk.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	pk.DisableFastObfuscation()
	if pk.FastObfuscation() || pk.ObfuscationBase() != nil || pk.ObfuscationBits() != 0 {
		t.Fatal("DisableFastObfuscation did not revert to baseline")
	}
	ct, err := pk.Encrypt(rand.Reader, big.NewInt(9))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(ct); err != nil || v != 9 {
		t.Errorf("baseline round trip after disable = %d, %v; want 9", v, err)
	}
}

// --- obfuscator benchmarks: the BENCH_crypto.json baseline ---------------

// BenchmarkObfuscatorBaseline measures the paper-exact r^n mod n² cost.
func BenchmarkObfuscatorBaseline(b *testing.B) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			priv := testKey(b, bits)
			pk := NewPublicKey(priv.N)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.BaselineObfuscator(rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkObfuscatorFixedBase measures the DJN h^x path; the table
// precomputation is excluded (it is one-time, at session setup).
func BenchmarkObfuscatorFixedBase(b *testing.B) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			priv := testKey(b, bits)
			pk := NewPublicKey(priv.N)
			if err := pk.EnableFastObfuscation(rand.Reader, 0); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pk.Obfuscator(rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncryptFastObfuscation is the end-to-end Enc cost with the
// fast path on (compare BenchmarkEncrypt, which is the baseline).
func BenchmarkEncryptFastObfuscation(b *testing.B) {
	priv := testKey(b, 512)
	pk := NewPublicKey(priv.N)
	if err := pk.EnableFastObfuscation(rand.Reader, 0); err != nil {
		b.Fatal(err)
	}
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pk.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}
