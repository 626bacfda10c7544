package paillier

import (
	"crypto/rand"
	"errors"
	"math/big"
	"testing"
)

// badCiphertexts enumerates the range violations every ciphertext-consuming
// operation must reject with ErrInvalidCiphertext.
func badCiphertexts(pk *PublicKey) []Ciphertext {
	return []Ciphertext{
		{},                                 // nil value
		{C: big.NewInt(0)},                 // zero: not a unit
		{C: big.NewInt(-17)},               // negative
		{C: new(big.Int).Set(pk.NSquared)}, // == n²
		{C: new(big.Int).Add(pk.NSquared, big.NewInt(5))}, // > n²
	}
}

func TestValidateCiphertextRejectsOutOfRange(t *testing.T) {
	priv := testKey(t, 256)
	for i, ct := range badCiphertexts(priv.Public()) {
		if err := priv.ValidateCiphertext(ct); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("case %d: ValidateCiphertext = %v, want ErrInvalidCiphertext", i, err)
		}
	}
	ok, err := priv.EncryptInt64(rand.Reader, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := priv.ValidateCiphertext(ok); err != nil {
		t.Errorf("ValidateCiphertext rejected a genuine ciphertext: %v", err)
	}
}

func TestMulScalarRejectsAdversarialInputs(t *testing.T) {
	priv := testKey(t, 256)
	for i, bad := range badCiphertexts(priv.Public()) {
		if _, err := priv.MulScalar(bad, big.NewInt(2)); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("case %d: MulScalar = %v, want ErrInvalidCiphertext", i, err)
		}
	}
}

// TestMulScalarReducesLargeScalars: k ≥ n must be reduced mod n, not fed to
// the exponentiation raw — Exp with a non-reduced exponent is both slower
// and inconsistent with the plaintext ring Z_n.
func TestMulScalarReducesLargeScalars(t *testing.T) {
	priv := testKey(t, 256)
	ct, err := priv.EncryptInt64(rand.Reader, 7)
	if err != nil {
		t.Fatal(err)
	}
	// k = n + 5 ≡ 5 (mod n), so the product must decrypt to 35.
	k := new(big.Int).Add(priv.N, big.NewInt(5))
	prod, err := priv.MulScalar(ct, k)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(prod); err != nil || v != 35 {
		t.Errorf("MulScalar(ct, n+5) = %d, %v; want 35", v, err)
	}
	// A huge multiple of n acts like zero.
	k2 := new(big.Int).Mul(priv.N, big.NewInt(1<<20))
	prod2, err := priv.MulScalar(ct, k2)
	if err != nil {
		t.Fatal(err)
	}
	if v, err := priv.DecryptInt64(prod2); err != nil || v != 0 {
		t.Errorf("MulScalar(ct, (1<<20)·n) = %d, %v; want 0", v, err)
	}
}

func TestDecryptRejectsAdversarialInputs(t *testing.T) {
	priv := testKey(t, 256)
	for i, bad := range badCiphertexts(priv.Public()) {
		if _, err := priv.Decrypt(bad); !errors.Is(err, ErrInvalidCiphertext) {
			t.Errorf("case %d: Decrypt = %v, want ErrInvalidCiphertext", i, err)
		}
	}
}

// FuzzCiphertextOps feeds arbitrary bytes through the full ciphertext
// surface — Decrypt, MulScalar, Add — and requires that nothing
// panics. Errors are fine; crashes are the bug this PR fixes.
func FuzzCiphertextOps(f *testing.F) {
	priv := testKey(f, 128)
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Add(priv.N.Bytes())
	f.Add(priv.NSquared.Bytes())
	f.Add(new(big.Int).Mul(priv.p, big.NewInt(9)).Bytes())
	good, err := priv.EncryptInt64(rand.Reader, 11)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good.Bytes())
	// The same key with the owner's CRT path on: its ciphertexts are
	// ordinary group elements and must behave as such.
	owned, err := ownerKey(f, 128).Encrypt(rand.Reader, big.NewInt(11))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(owned.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		ct := CiphertextFromBytes(raw)
		if _, err := priv.Decrypt(ct); err != nil {
			// Rejected: fine. Accepted garbage decrypts to *something*; the
			// point is only that it never panics.
			_ = err
		}
		if prod, err := priv.MulScalar(ct, big.NewInt(3)); err == nil {
			_, _ = priv.Decrypt(prod)
		}
		if err := priv.ValidateCiphertext(ct); err == nil {
			_, _ = priv.Decrypt(priv.Add(good, ct))
		}
	})
}
