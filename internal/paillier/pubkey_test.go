package paillier

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// TestNewPublicKeyInterop: a public key reconstructed from the modulus
// alone (as shared with passive parties) must produce ciphertexts the
// original private key can decrypt, and homomorphic ops must interoperate.
func TestNewPublicKeyInterop(t *testing.T) {
	priv := testKey(t, 256)
	pub := NewPublicKey(priv.N)

	ct, err := pub.Encrypt(rand.Reader, big.NewInt(12345))
	if err != nil {
		t.Fatal(err)
	}
	m, err := priv.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if m.Int64() != 12345 {
		t.Errorf("cross-key decrypt = %v", m)
	}

	// Mix ciphertexts from both key views.
	ct2, err := priv.Encrypt(rand.Reader, big.NewInt(55))
	if err != nil {
		t.Fatal(err)
	}
	sum, err := priv.Decrypt(pub.Add(ct, ct2))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Int64() != 12400 {
		t.Errorf("mixed add = %v", sum)
	}
	if pub.Bits() != priv.Bits() {
		t.Errorf("bits mismatch: %d vs %d", pub.Bits(), priv.Bits())
	}
}

func TestObfuscatorIsUnitPower(t *testing.T) {
	priv := testKey(t, 256)
	rn, err := priv.Obfuscator(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	// Enc(0) with this obfuscator must decrypt to 0 (r^n is a valid
	// encryption of zero).
	ct := priv.EncryptWithObfuscator(big.NewInt(0), rn)
	m, err := priv.Decrypt(ct)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sign() != 0 {
		t.Errorf("obfuscated zero decrypts to %v", m)
	}
}
