package paillier

import (
	"crypto/rand"
	"fmt"
	"io"
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
	if err := priv.EnableFastObfuscation(rand.Reader, 0); err != nil {
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
// exponents wider than the tables (which take the ladder fallback).
func TestOwnerExpMatchesBigExp(t *testing.T) {
	for _, bits := range []int{512, 1024, 2048} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			priv := ownerKey(t, bits)
			o, h, n2 := priv.owner, priv.fast.h, priv.NSquared
			expBits := priv.ObfuscationBits()
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
			check(new(big.Int).Lsh(one, uint(o.fp.MaxBits())))
			check(new(big.Int).Rand(rng, n2))
		})
	}
}

// TestOwnerCiphertextsInteroperate: ciphertexts from the owner path
// decrypt, and mix freely with public-path ciphertexts under Add and
// MulScalar.
func TestOwnerCiphertextsInteroperate(t *testing.T) {
	priv := ownerKey(t, 512)
	pub := NewPublicKey(priv.N)
	if err := pub.SetObfuscationBase(priv.ObfuscationBase(), priv.ObfuscationBits()); err != nil {
		t.Fatal(err)
	}
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

// TestOwnerTablesStayPrivate is the secrecy boundary: enabling the owner
// path leaves the PublicKey handed out by Public() — and a key a passive
// party rebuilds from the setup bytes — on the public window-4 tables
// modulo n², and a base re-derived behind the private key's back retires
// the stale owner tables instead of serving them.
func TestOwnerTablesStayPrivate(t *testing.T) {
	priv := ownerKey(t, 512)
	rebuilt := NewPublicKey(new(big.Int).SetBytes(priv.N.Bytes()))
	if err := rebuilt.SetObfuscationBase(new(big.Int).SetBytes(priv.ObfuscationBase().Bytes()), priv.ObfuscationBits()); err != nil {
		t.Fatal(err)
	}
	for name, pk := range map[string]*PublicKey{"Public()": priv.Public(), "rebuilt": rebuilt} {
		fb := pk.fast.fb
		if fb.window != fixedBaseWindow || fb.mod.Cmp(pk.NSquared) != 0 {
			t.Errorf("%s: tables use window %d modulo a %d-bit value, want window %d modulo n²",
				name, fb.window, fb.mod.BitLen(), fixedBaseWindow)
		}
	}
	if w := priv.owner.fp.window; w != ownerWindow {
		t.Errorf("owner tables use window %d, want %d", w, ownerWindow)
	}

	pub := priv.Public()
	pub.DisableFastObfuscation()
	if err := pub.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	if priv.OwnerObfuscation() {
		t.Fatal("owner tables for a retired base still count as enabled")
	}
	if err := priv.EnableFastObfuscation(rand.Reader, 0); err != nil {
		t.Fatal(err)
	}
	if !priv.OwnerObfuscation() || priv.owner.h != priv.fast.h {
		t.Fatal("re-enabling did not rebuild the owner tables for the new base")
	}
	priv.DisableFastObfuscation()
	if priv.OwnerObfuscation() || priv.FastObfuscation() || priv.owner != nil {
		t.Fatal("DisableFastObfuscation left a fast path behind")
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
// BenchmarkObfuscatorFixedBase at the same size. Table precomputation is
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

// BenchmarkEncryptOwnerVsPublic is the end-to-end Enc cost with fast
// obfuscation on, through the private key and through the public key of
// the same pair; bits=2048 is the paper's key size.
func BenchmarkEncryptOwnerVsPublic(b *testing.B) {
	type encrypter interface {
		Encrypt(random io.Reader, m *big.Int) (Ciphertext, error)
	}
	for _, bits := range []int{512, 2048} {
		for _, path := range []string{"owner", "public"} {
			b.Run(fmt.Sprintf("%s/bits=%d", path, bits), func(b *testing.B) {
				priv := ownerKey(b, bits)
				var enc encrypter = priv
				if path == "public" {
					enc = priv.Public()
				}
				m := big.NewInt(123456789)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := enc.Encrypt(rand.Reader, m); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkOwnerTableBuild is the one-time cost EnableFastObfuscation adds
// for the key owner.
func BenchmarkOwnerTableBuild(b *testing.B) {
	priv := ownerKey(b, 2048)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		newOwnerObfuscator(priv, priv.fast)
	}
}
