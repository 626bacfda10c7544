package he

import (
	"math/big"
	"testing"

	"vf2boost/internal/paillier"
)

// schemes under test: every Scheme must satisfy the same contract so the
// protocol code can swap them freely.
func testSchemes(t *testing.T) map[string]Decryptor {
	t.Helper()
	p, err := NewPaillier(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	return map[string]Decryptor{
		"paillier": p,
		"mock":     NewMock(256),
	}
}

func TestSchemeContract(t *testing.T) {
	for name, s := range testSchemes(t) {
		t.Run(name, func(t *testing.T) {
			if s.Name() == "" {
				t.Error("empty scheme name")
			}
			if s.Bits() < 256 {
				t.Errorf("Bits = %d, want >= 256", s.Bits())
			}
			if s.CiphertextBytes() <= 0 {
				t.Error("CiphertextBytes must be positive")
			}

			a, err := s.Encrypt(big.NewInt(17))
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.Encrypt(big.NewInt(25))
			if err != nil {
				t.Fatal(err)
			}

			sum, err := s.Decrypt(s.Add(a, b))
			if err != nil {
				t.Fatal(err)
			}
			if sum.Int64() != 42 {
				t.Errorf("Add: %v, want 42", sum)
			}

			prod, err := s.Decrypt(s.MulScalar(a, big.NewInt(3)))
			if err != nil {
				t.Fatal(err)
			}
			if prod.Int64() != 51 {
				t.Errorf("MulScalar: %v, want 51", prod)
			}

			zero, err := s.Decrypt(s.EncryptZero())
			if err != nil {
				t.Fatal(err)
			}
			if zero.Sign() != 0 {
				t.Errorf("EncryptZero decrypts to %v", zero)
			}

			acc := s.EncryptZero()
			for i := 1; i <= 5; i++ {
				ct, err := s.Encrypt(big.NewInt(int64(i)))
				if err != nil {
					t.Fatal(err)
				}
				acc = s.AddInto(acc, ct)
			}
			accV, err := s.Decrypt(acc)
			if err != nil {
				t.Fatal(err)
			}
			if accV.Int64() != 15 {
				t.Errorf("AddInto chain: %v, want 15", accV)
			}

			wire := s.Marshal(b)
			back, err := s.Unmarshal(wire)
			if err != nil {
				t.Fatal(err)
			}
			v, err := s.Decrypt(back)
			if err != nil {
				t.Fatal(err)
			}
			if v.Int64() != 25 {
				t.Errorf("Marshal round trip: %v, want 25", v)
			}
		})
	}
}

func TestSignedHelper(t *testing.T) {
	m := NewMock(64)
	neg := new(big.Int).Sub(m.N(), big.NewInt(7))
	if got := Signed(m, neg); got.Int64() != -7 {
		t.Errorf("Signed(N-7) = %v, want -7", got)
	}
	if got := Signed(m, big.NewInt(7)); got.Int64() != 7 {
		t.Errorf("Signed(7) = %v, want 7", got)
	}
}

func TestMockRejectsOutOfRange(t *testing.T) {
	m := NewMock(64)
	if _, err := m.Encrypt(big.NewInt(-1)); err == nil {
		t.Error("Encrypt(-1) succeeded")
	}
	if _, err := m.Encrypt(m.N()); err == nil {
		t.Error("Encrypt(N) succeeded")
	}
}

func TestPaillierUnmarshalEmpty(t *testing.T) {
	p, err := NewPaillier(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if _, err := p.Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded, want error")
	}
}

func TestPaillierPooledEncryption(t *testing.T) {
	p, err := NewPaillier(256, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	for i := 0; i < 5; i++ {
		ct, err := p.Encrypt(big.NewInt(int64(i)))
		if err != nil {
			t.Fatal(err)
		}
		v, err := p.Decrypt(ct)
		if err != nil {
			t.Fatal(err)
		}
		if v.Int64() != int64(i) {
			t.Errorf("pooled encrypt %d decrypts to %v", i, v)
		}
	}
}

// TestPaillierUnmarshalRejectsOutOfRange: Unmarshal is the validation gate
// for ciphertexts arriving from the wire, so anything outside (0, n²) must
// be rejected here rather than panic downstream.
func TestPaillierUnmarshalRejectsOutOfRange(t *testing.T) {
	p, err := NewPaillier(256, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	n2 := new(big.Int).Mul(p.N(), p.N())
	bad := [][]byte{
		{0},        // zero
		n2.Bytes(), // == n²
		new(big.Int).Add(n2, big.NewInt(7)).Bytes(), // > n²
	}
	for i, raw := range bad {
		if _, err := p.Unmarshal(raw); err == nil {
			t.Errorf("case %d: Unmarshal accepted out-of-range ciphertext", i)
		}
	}
	ct, err := p.Encrypt(big.NewInt(99))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Unmarshal(p.Marshal(ct)); err != nil {
		t.Errorf("Unmarshal rejected a genuine ciphertext: %v", err)
	}
}

// TestPaillierFastObfuscationRoundTrip exercises the decryptor-side enable
// path — with and without a pool — plus the passive-party install via
// SetObfuscationBase, and the disable path back to baseline.
func TestPaillierFastObfuscationRoundTrip(t *testing.T) {
	for _, workers := range []int{0, 2} {
		p, err := NewPaillier(256, workers)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if err := p.EnableFastObfuscation(); err != nil {
			t.Fatal(err)
		}
		if p.ObfuscationBase() == nil || p.ObfuscationBits() <= 0 {
			t.Fatal("fast obfuscation not reported after enable")
		}
		for i := int64(0); i < 5; i++ {
			ct, err := p.Encrypt(big.NewInt(i))
			if err != nil {
				t.Fatalf("workers=%d Encrypt(%d): %v", workers, i, err)
			}
			if v, err := p.Decrypt(ct); err != nil || v.Int64() != i {
				t.Fatalf("workers=%d round trip %d = %v, %v", workers, i, v, err)
			}
		}

		// Passive party installs the shipped base and its ciphertexts stay
		// decryptable by the key owner.
		passive := NewPaillierPublic(paillier.NewPublicKey(p.N()))
		if err := passive.SetObfuscationBase(p.ObfuscationBase(), p.ObfuscationBits()); err != nil {
			t.Fatal(err)
		}
		ct, err := passive.Encrypt(big.NewInt(31))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := p.Decrypt(ct); err != nil || v.Int64() != 31 {
			t.Fatalf("passive fast ciphertext = %v, %v; want 31", v, err)
		}

		p.DisableFastObfuscation()
		if p.ObfuscationBase() != nil {
			t.Fatal("base still reported after disable")
		}
		ct2, err := p.Encrypt(big.NewInt(8))
		if err != nil {
			t.Fatal(err)
		}
		if v, err := p.Decrypt(ct2); err != nil || v.Int64() != 8 {
			t.Fatalf("baseline round trip after disable = %v, %v; want 8", v, err)
		}
	}
}
