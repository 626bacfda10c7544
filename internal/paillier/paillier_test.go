package paillier

import (
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

// testKey caches one key pair per size so the whole package's tests do not
// repeatedly pay key generation.
var testKeys = map[int]*PrivateKey{}

func testKey(t testing.TB, bits int) *PrivateKey {
	t.Helper()
	if k, ok := testKeys[bits]; ok {
		return k
	}
	k, err := GenerateKey(rand.Reader, bits)
	if err != nil {
		t.Fatalf("GenerateKey(%d): %v", bits, err)
	}
	testKeys[bits] = k
	return k
}

func TestGenerateKeyRejectsBadSizes(t *testing.T) {
	for _, bits := range []int{0, -8, 32, 63, 127} {
		if _, err := GenerateKey(rand.Reader, bits); err == nil {
			t.Errorf("GenerateKey(%d) succeeded, want error", bits)
		}
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	priv := testKey(t, 256)
	for _, v := range []int64{0, 1, -1, 42, -42, 1 << 40, -(1 << 40), 9223372036854775807, -9223372036854775808} {
		ct, err := priv.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatalf("EncryptInt64(%d): %v", v, err)
		}
		got, err := priv.DecryptInt64(ct)
		if err != nil {
			t.Fatalf("DecryptInt64(%d): %v", v, err)
		}
		if got != v {
			t.Errorf("round trip of %d = %d", v, got)
		}
	}
}

func TestHomomorphicAdditionProperty(t *testing.T) {
	priv := testKey(t, 256)
	f := func(a, b int32) bool {
		ca, err := priv.EncryptInt64(rand.Reader, int64(a))
		if err != nil {
			return false
		}
		cb, err := priv.EncryptInt64(rand.Reader, int64(b))
		if err != nil {
			return false
		}
		sum, err := priv.DecryptInt64(priv.Add(ca, cb))
		if err != nil {
			return false
		}
		return sum == int64(a)+int64(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestScalarMultiplicationProperty(t *testing.T) {
	priv := testKey(t, 256)
	f := func(v, k int16) bool {
		cv, err := priv.EncryptInt64(rand.Reader, int64(v))
		if err != nil {
			return false
		}
		prod, err := priv.MulScalar(cv, big.NewInt(int64(k)))
		if err != nil {
			return false
		}
		got, err := priv.DecryptInt64(prod)
		if err != nil {
			return false
		}
		return got == int64(v)*int64(k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestAddIntoMatchesAdd(t *testing.T) {
	priv := testKey(t, 256)
	acc := priv.EncryptZero()
	want := int64(0)
	rng := mrand.New(mrand.NewSource(7))
	for i := 0; i < 20; i++ {
		v := rng.Int63n(1000) - 500
		ct, err := priv.EncryptInt64(rand.Reader, v)
		if err != nil {
			t.Fatal(err)
		}
		priv.AddInto(&acc, ct)
		want += v
	}
	got, err := priv.DecryptInt64(acc)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("accumulated sum = %d, want %d", got, want)
	}
}

func TestEncryptZeroIsIdentity(t *testing.T) {
	priv := testKey(t, 256)
	ct, _ := priv.EncryptInt64(rand.Reader, 77)
	sum := priv.Add(ct, priv.EncryptZero())
	got, err := priv.DecryptInt64(sum)
	if err != nil {
		t.Fatal(err)
	}
	if got != 77 {
		t.Errorf("x + Enc(0) decrypts to %d, want 77", got)
	}
	z, err := priv.DecryptInt64(priv.EncryptZero())
	if err != nil {
		t.Fatal(err)
	}
	if z != 0 {
		t.Errorf("Dec(EncryptZero()) = %d, want 0", z)
	}
}

func TestEncryptionIsProbabilistic(t *testing.T) {
	priv := testKey(t, 256)
	c1, _ := priv.EncryptInt64(rand.Reader, 5)
	c2, _ := priv.EncryptInt64(rand.Reader, 5)
	if c1.C.Cmp(c2.C) == 0 {
		t.Error("two encryptions of the same plaintext are identical; obfuscation missing")
	}
}

func TestDecryptRejectsInvalidCiphertext(t *testing.T) {
	priv := testKey(t, 256)
	cases := []Ciphertext{
		{C: nil},
		{C: big.NewInt(0)},
		{C: new(big.Int).Neg(big.NewInt(5))},
		{C: new(big.Int).Set(priv.NSquared)},
	}
	for i, ct := range cases {
		if _, err := priv.Decrypt(ct); err == nil {
			t.Errorf("case %d: Decrypt accepted invalid ciphertext", i)
		}
	}
}

func TestCiphertextBytesRoundTrip(t *testing.T) {
	priv := testKey(t, 256)
	ct, _ := priv.EncryptInt64(rand.Reader, 1234)
	back := CiphertextFromBytes(ct.Bytes())
	got, err := priv.DecryptInt64(back)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1234 {
		t.Errorf("byte round trip = %d, want 1234", got)
	}
}

func TestObfuscatorPool(t *testing.T) {
	priv := testKey(t, 256)
	pool := NewObfuscatorPool(&priv.PublicKey, 2, 8, nil)
	defer pool.Close()
	for i := 0; i < 10; i++ {
		rn, err := pool.Next()
		if err != nil {
			t.Fatal(err)
		}
		ct := priv.EncryptWithObfuscator(big.NewInt(int64(i)), rn)
		got, err := priv.DecryptInt64(ct)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(i) {
			t.Errorf("pool-encrypted %d decrypts to %d", i, got)
		}
	}
}

func TestSignedMapping(t *testing.T) {
	priv := testKey(t, 256)
	neg := new(big.Int).Sub(priv.N, big.NewInt(9)) // encodes -9
	if got := priv.Signed(neg); got.Int64() != -9 {
		t.Errorf("Signed(n-9) = %v, want -9", got)
	}
	if got := priv.Signed(big.NewInt(9)); got.Int64() != 9 {
		t.Errorf("Signed(9) = %v, want 9", got)
	}
}

func TestModulusWrapAround(t *testing.T) {
	// Adding two large positives that exceed n wraps mod n; the signed
	// view must then be interpreted carefully by callers. Verify the raw
	// modular behaviour is exact.
	priv := testKey(t, 128)
	a := new(big.Int).Sub(priv.N, big.NewInt(1))
	ca, err := priv.Encrypt(rand.Reader, a)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := priv.Encrypt(rand.Reader, big.NewInt(3))
	if err != nil {
		t.Fatal(err)
	}
	m, err := priv.Decrypt(priv.Add(ca, cb))
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 2 { // (n-1)+3 mod n = 2
		t.Errorf("wraparound sum = %v, want 2", m)
	}
}

func BenchmarkEncrypt(b *testing.B) {
	priv := testKey(b, 512)
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priv.Encrypt(rand.Reader, m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncryptWithPool(b *testing.B) {
	priv := testKey(b, 512)
	pool := NewObfuscatorPool(&priv.PublicKey, 0, 64, nil)
	defer pool.Close()
	m := big.NewInt(123456789)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rn, err := pool.Next()
		if err != nil {
			b.Fatal(err)
		}
		priv.EncryptWithObfuscator(m, rn)
	}
}

func BenchmarkDecryptCRT(b *testing.B) {
	priv := testKey(b, 512)
	ct, _ := priv.EncryptInt64(rand.Reader, 987654321)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := priv.Decrypt(ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHAdd(b *testing.B) {
	priv := testKey(b, 512)
	c1, _ := priv.EncryptInt64(rand.Reader, 7)
	c2, _ := priv.EncryptInt64(rand.Reader, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		priv.AddInto(&c1, c2)
	}
}

// BenchmarkSMul measures the scalars the protocol multiplies by, at the
// paper's key size: the packing shift 2^114 (a 2·57-bit slot), exponent
// alignment by 16 and 16³, and a dense 114-bit scalar that stays on the
// general big.Int.Exp path. bits=512 is the pre-PR-18 benchmark (2^20 under
// a 512-bit key), kept so the committed baselines stay comparable.
func BenchmarkSMul(b *testing.B) {
	odd, _ := new(big.Int).SetString("2d6f0c3a915be847f1a3c59e0b7d3", 16) // 114 bits, not a power of two
	for _, bc := range []struct {
		name string
		bits int
		k    *big.Int
	}{
		{"shift114", 2048, new(big.Int).Lsh(one, 114)},
		{"scale16", 2048, big.NewInt(16)},
		{"scale4096", 2048, big.NewInt(4096)},
		{"odd", 2048, odd},
		{"bits=512", 512, big.NewInt(1 << 20)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			priv := testKey(b, bc.bits)
			ct, _ := priv.EncryptInt64(rand.Reader, 7)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := priv.MulScalar(ct, bc.k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
