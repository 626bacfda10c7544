package he

import (
	"bytes"
	"math/big"
	"sync"
	"testing"

	"vf2boost/internal/paillier"
)

// schemes under test: every Scheme must satisfy the same contract so the
// protocol code can swap them freely.
func testSchemes(t *testing.T) map[string]Decryptor {
	t.Helper()
	p, err := NewPaillier(256)
	if err != nil {
		t.Fatal(err)
	}
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
	p, err := NewPaillier(256)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil) succeeded, want error")
	}
}

// TestPaillierUnmarshalRejectsOutOfRange: Unmarshal is the validation gate
// for ciphertexts arriving from the wire, so anything outside (0, n²) must
// be rejected here rather than panic downstream.
func TestPaillierUnmarshalRejectsOutOfRange(t *testing.T) {
	p, err := NewPaillier(256)
	if err != nil {
		t.Fatal(err)
	}
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
// path, a passive party's r^n ciphertexts under the same key, and the
// disable path back to baseline.
func TestPaillierFastObfuscationRoundTrip(t *testing.T) {
	p, err := NewPaillier(256)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableFastObfuscation(); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		ct, err := p.Encrypt(big.NewInt(i))
		if err != nil {
			t.Fatalf("Encrypt(%d): %v", i, err)
		}
		if v, err := p.Decrypt(ct); err != nil || v.Int64() != i {
			t.Fatalf("round trip %d = %v, %v", i, v, err)
		}
	}

	// A public scheme rebuilt from the modulus encrypts with r^n, and the
	// key owner decrypts its ciphertexts.
	passive := NewPaillierPublic(paillier.NewPublicKey(p.N()))
	ct, err := passive.Encrypt(big.NewInt(31))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := p.Decrypt(ct); err != nil || v.Int64() != 31 {
		t.Fatalf("passive ciphertext = %v, %v; want 31", v, err)
	}

	p.DisableFastObfuscation()
	ct2, err := p.Encrypt(big.NewInt(8))
	if err != nil {
		t.Fatal(err)
	}
	if v, err := p.Decrypt(ct2); err != nil || v.Int64() != 8 {
		t.Fatalf("baseline round trip after disable = %v, %v; want 8", v, err)
	}
}

// TestSharedAddendConcurrentAdds has several goroutines add one shared
// wire ciphertext — an addend under the 2048-bit digit form — and one
// shared canonical ciphertext, as the pack workers share a node's shift
// ciphertext: as b of AddInto and as operands of Add, and shift it by a
// power of two as the packing chain does (each goroutine's first shift
// may be the one that caches the key's K_s addend). Under -race any write
// to a shared operand fails the run, and every result must marshal to
// big.Int's bytes. Under the digit form Add and the shift return
// accumulators, so a chain of them never leaves it.
func TestSharedAddendConcurrentAdds(t *testing.T) {
	pd, err := NewPaillier(2048)
	if err != nil {
		t.Fatal(err)
	}
	pk := paillier.NewPublicKey(pd.N())
	s := NewPaillierPublic(pk)
	ct, err := s.Encrypt(big.NewInt(5))
	if err != nil {
		t.Fatal(err)
	}
	shift, err := s.Encrypt(big.NewInt(7))
	if err != nil {
		t.Fatal(err)
	}
	raw := s.Marshal(ct)
	shared, err := s.Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	c, k := new(big.Int).SetBytes(raw), new(big.Int).SetBytes(s.Marshal(shift))
	const adds = 12
	sumBytes := new(big.Int).Exp(c, big.NewInt(adds), pk.NSquared).Bytes()
	ck := new(big.Int).Mul(c, k)
	withShift := ck.Mod(ck, pk.NSquared).Bytes()
	pow := new(big.Int).Lsh(big.NewInt(1), 114)
	scaled := new(big.Int).Exp(c, pow, pk.NSquared).Bytes()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			acc := s.EncryptZero()
			for i := 0; i < adds; i++ {
				acc = s.AddInto(acc, shared)
				for name, got := range map[string]Ciphertext{
					"Add":     s.Add(shared, shift),
					"AddInto": s.AddInto(s.Add(shift, s.EncryptZero()), shared),
				} {
					if !bytes.Equal(s.Marshal(got), withShift) {
						t.Errorf("%s: bytes differ from big.Int's product", name)
						return
					}
				}
				if got := s.MulScalar(shared, pow); !bytes.Equal(s.Marshal(got), scaled) {
					t.Error("MulScalar by 2^114: bytes differ from big.Int's power")
					return
				}
			}
			if !bytes.Equal(s.Marshal(acc), sumBytes) {
				t.Errorf("%d adds of the shared addend: bytes differ from big.Int's power", adds)
			}
		}()
	}
	wg.Wait()
	if !bytes.Equal(s.Marshal(shared), raw) {
		t.Fatal("the shared addend changed")
	}
	if m, err := pd.Decrypt(s.Add(shared, shared)); err != nil || m.Int64() != 10 {
		t.Fatalf("Dec(shared + shared) = %v, %v; want 10", m, err)
	}
	if pk.DigitForm() {
		for name, got := range map[string]Ciphertext{"Add": s.Add(shared, shift), "MulScalar": s.MulScalar(s.Add(shared, shift), pow)} {
			if _, ok := got.(paillierAcc); !ok {
				t.Errorf("%s returned %T under the digit form, want an accumulator", name, got)
			}
		}
	}
}
