package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// ownerKey returns a private copy of the cached test key of the given
// size with fast obfuscation and the owner tables enabled; the cached key
// itself is shared between tests and must not be reconfigured.
func ownerKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	cached := testKey(t, bits)
	priv := newPrivateKey(cached.p, cached.q)
	if priv.OwnerObfuscation() {
		t.Fatal("owner obfuscation enabled before EnableFastObfuscation")
	}
	if err := priv.EnableFastObfuscation(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if !priv.OwnerObfuscation() {
		t.Fatal("owner obfuscation not enabled")
	}
	return priv
}

// TestOwnerExpMatchesBigExp pins the owner's CRT evaluation of h^x to
// math/big's h^x mod n²: edge exponents, every single-window value of the
// lowest, a middle and the highest window, random exponents, and
// exponents wider than the tables (which take the ladder fallback). At
// 2048 bits the tables are built twice: in Montgomery form on the kernel
// and on big.Int.
func TestOwnerExpMatchesBigExp(t *testing.T) {
	for _, bits := range []int{512, 1024, 2048} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			forEachPath(t, bits == montBits, func(t *testing.T) { testOwnerExp(t, ownerKey(t, bits)) })
		})
	}
}

func testOwnerExp(t *testing.T, priv *PrivateKey) {
	bits := priv.Bits()
	o, h, n2 := priv.owner, priv.owner.h, priv.NSquared
	expBits := DefaultObfuscationBitsFor(bits)
	check := func(x *big.Int) {
		t.Helper()
		if got, want := o.exp(x), new(big.Int).Exp(h, x, n2); got.Cmp(want) != 0 {
			t.Fatalf("owner h^x != big.Exp for %d-bit x = %x", x.BitLen(), x)
		}
	}
	check(new(big.Int))
	check(big.NewInt(1))
	check(new(big.Int).Sub(new(big.Int).Lsh(one, uint(expBits)), one))
	windows := expBits / ownerWindow
	for _, w := range []int{0, windows / 2, windows - 1} {
		for v := int64(1); v < 1<<ownerWindow; v++ {
			check(new(big.Int).Lsh(big.NewInt(v), uint(w*ownerWindow)))
		}
	}
	randoms := 1000
	if testing.Short() && bits > 512 {
		randoms = 100
	}
	rng := mrand.New(mrand.NewSource(int64(bits)))
	for i := 0; i < randoms; i++ {
		check(new(big.Int).Rand(rng, o.expMax))
	}
	// Wider than the tables: one bit past, and as wide as n².
	check(new(big.Int).Lsh(one, uint(o.fp.maxBits())))
	check(new(big.Int).Rand(rng, n2))
}

// TestOwnerCiphertextsInteroperate: ciphertexts from the owner path
// decrypt, and mix freely with r^n ciphertexts of a public key rebuilt
// from the modulus under Add and MulScalar.
func TestOwnerCiphertextsInteroperate(t *testing.T) {
	priv := ownerKey(t, 512)
	pub := NewPublicKey(new(big.Int).SetBytes(priv.N.Bytes()))
	dec := func(ct Ciphertext) int64 {
		t.Helper()
		v, err := priv.DecryptInt64(ct)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	own, err := priv.Encrypt(rand.Reader, big.NewInt(1000))
	if err != nil {
		t.Fatal(err)
	}
	other, err := pub.Encrypt(rand.Reader, big.NewInt(234))
	if err != nil {
		t.Fatal(err)
	}
	if got := dec(own); got != 1000 {
		t.Fatalf("owner ciphertext decrypts to %d, want 1000", got)
	}
	if got := dec(pub.Add(own, other)); got != 1234 {
		t.Errorf("owner + public = %d, want 1234", got)
	}
	scaled, err := pub.MulScalar(own, big.NewInt(-3))
	if err != nil {
		t.Fatal(err)
	}
	if got := dec(scaled); got != -3000 {
		t.Errorf("−3 · owner = %d, want −3000", got)
	}
}

// TestOwnerTablesStayPrivate is the secrecy boundary: the owner's tables
// are built modulo p² and q² and hang off the private key alone — the
// PublicKey it hands out keeps drawing r^n — and disabling releases them,
// after which enabling derives a fresh base.
func TestOwnerTablesStayPrivate(t *testing.T) {
	priv := ownerKey(t, 512)
	o := priv.owner
	if o.fp.window != ownerWindow || o.fp.mod.Cmp(priv.pSquared) != 0 || o.fq.mod.Cmp(priv.qSquared) != 0 {
		t.Errorf("owner tables use window %d modulo %d- and %d-bit values, want window %d modulo p² and q²",
			o.fp.window, o.fp.mod.BitLen(), o.fq.mod.BitLen(), ownerWindow)
	}
	// A public-key obfuscator is r^n, not a power of the owner's base: it
	// is an encryption of zero whatever the base.
	rn, err := priv.Public().Obfuscator(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if m, err := priv.Decrypt(Ciphertext{C: rn}); err != nil || m.Sign() != 0 {
		t.Fatalf("public obfuscator decrypts to %v, %v; want 0", m, err)
	}

	priv.DisableFastObfuscation()
	if priv.OwnerObfuscation() || priv.owner != nil {
		t.Fatal("DisableFastObfuscation left the owner tables behind")
	}
	if err := priv.EnableFastObfuscation(rand.Reader); err != nil {
		t.Fatal(err)
	}
	if priv.owner.h.Cmp(o.h) == 0 {
		t.Fatal("re-enabling reused the retired base")
	}
}

// TestOwnerObfuscatorConcurrent draws owner obfuscators from several
// goroutines (the pooled scratch must not be shared between two
// evaluations) and checks each is an n-th residue the way the key owner
// can: read as a ciphertext, it decrypts to 0.
func TestOwnerObfuscatorConcurrent(t *testing.T) {
	priv := ownerKey(t, 512)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				rn, err := priv.Obfuscator(rand.Reader)
				if err != nil {
					t.Error(err)
					return
				}
				m, err := priv.Decrypt(Ciphertext{C: rn})
				if err != nil || m.Sign() != 0 {
					t.Errorf("owner obfuscator is not an encryption of zero: %v, %v", m, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkOwnerObfuscator measures the key owner's CRT h^x path; compare
// BenchmarkObfuscatorBaseline at the same size. Table precomputation is
// excluded (one-time per base, at session setup).
func BenchmarkOwnerObfuscator(b *testing.B) {
	for _, bits := range []int{256, 512, 1024, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			priv := ownerKey(b, bits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := priv.Obfuscator(rand.Reader); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEncryptOwner is the key owner's end-to-end Enc cost with fast
// obfuscation on; bits=2048 is the paper's key size. BenchmarkEncrypt is
// the r^n baseline.
func BenchmarkEncryptOwner(b *testing.B) {
	for _, bits := range []int{512, 2048} {
		b.Run(fmt.Sprintf("bits=%d", bits), func(b *testing.B) {
			priv := ownerKey(b, bits)
			m := big.NewInt(123456789)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := priv.Encrypt(rand.Reader, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOwnerTableBuild is the one-time cost EnableFastObfuscation adds
// for the key owner.
func BenchmarkOwnerTableBuild(b *testing.B) {
	priv := ownerKey(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newOwnerObfuscator(priv, priv.owner.h)
	}
}
