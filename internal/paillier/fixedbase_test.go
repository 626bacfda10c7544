package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// exp is a table's reference use: expInto over the covered range and
// math/big's ladder beyond it.
func (fb *fixedBase) exp(base, x *big.Int) *big.Int {
	if !fb.covers(x) {
		return new(big.Int).Exp(base, x, fb.mod)
	}
	acc := new(big.Int)
	fb.expInto(acc, x, new(expScratch))
	return acc
}

// TestFixedBaseExpMatchesBigExp checks the big.Int windowed tables
// against math/big's general ladder across exponent widths, including
// the boundaries of the precomputed range and the fallback beyond it.
// (The Montgomery tables are TestOwnerExpMatchesBigExp's.)
func TestFixedBaseExpMatchesBigExp(t *testing.T) {
	mod, _ := new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffc5", 16)
	base := big.NewInt(0xABCDEF)
	fb := newFixedBase(base, mod, 96, ownerWindow)
	rng := mrand.New(mrand.NewSource(11))
	exps := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(255),
		big.NewInt(256),
		new(big.Int).Lsh(one, 95), // top of the table range
		new(big.Int).Sub(new(big.Int).Lsh(one, 96), one), // all windows saturated
		new(big.Int).Lsh(one, 200),                       // beyond maxBits: fallback
	}
	for i := 0; i < 50; i++ {
		exps = append(exps, new(big.Int).Rand(rng, new(big.Int).Lsh(one, 96)))
	}
	for _, x := range exps {
		want := new(big.Int).Exp(base, x, mod)
		if got := fb.exp(base, x); got.Cmp(want) != 0 {
			t.Fatalf("exp(%v) = %v, want %v", x, got, want)
		}
	}
	if got := fb.maxBits(); got < 96 {
		t.Errorf("maxBits = %d, want >= 96", got)
	}
}

// TestFastObfuscationDecryptsIdentically proves the key owner's DJN h^x
// obfuscators are drop-in: every plaintext round-trips exactly as under
// baseline obfuscation, across signs and magnitudes.
func TestFastObfuscationDecryptsIdentically(t *testing.T) {
	priv := ownerKey(t, 256)
	if got := priv.owner.expMax.BitLen() - 1; got != DefaultObfuscationBits {
		t.Fatalf("short exponents of %d bits, want %d", got, DefaultObfuscationBits)
	}
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 1<<62 - 1} {
		m := big.NewInt(v)
		if v < 0 {
			m.Add(m, priv.N)
		}
		ct, err := priv.Encrypt(rand.Reader, m)
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
	c1, _ := priv.Encrypt(rand.Reader, big.NewInt(5))
	c2, _ := priv.Encrypt(rand.Reader, big.NewInt(5))
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two fast-obfuscated encryptions of the same plaintext are identical")
	}
}

// TestFastObfuscationHomomorphismsPreserved runs HAdd/SMul over
// fast-obfuscated ciphertexts: the obfuscation variant must not disturb
// the algebra.
func TestFastObfuscationHomomorphismsPreserved(t *testing.T) {
	priv := ownerKey(t, 256)
	ca, err := priv.Encrypt(rand.Reader, big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	cb, err := priv.Encrypt(rand.Reader, big.NewInt(58))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(priv.Add(ca, cb)); err != nil || v != 1058 {
		t.Errorf("Add = %d, %v; want 1058", v, err)
	}
	prod, err := priv.MulScalar(cb, big.NewInt(-3))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(prod); err != nil || v != -174 {
		t.Errorf("MulScalar = %d, %v; want -174", v, err)
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
	// The enable call sizes its tables by the same mapping.
	priv := ownerKey(t, 512)
	if got, want := priv.owner.expMax.BitLen()-1, DefaultObfuscationBitsFor(priv.Bits()); got != want {
		t.Errorf("short exponents of %d bits, want %d", got, want)
	}
}

func TestDisableFastObfuscation(t *testing.T) {
	priv := ownerKey(t, 256)
	priv.DisableFastObfuscation()
	if priv.OwnerObfuscation() {
		t.Fatal("DisableFastObfuscation did not revert to baseline")
	}
	ct, err := priv.Encrypt(rand.Reader, big.NewInt(9))
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
				if _, err := pk.Obfuscator(rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
