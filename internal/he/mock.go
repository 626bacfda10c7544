package he

import (
	"fmt"
	"math/big"
)

// mockCt carries a plaintext residue through the protocol unmodified.
type mockCt struct {
	v *big.Int
}

func (mockCt) isCiphertext() {}

// MockScheme implements Scheme with no cryptography at all: "ciphertexts"
// are the plaintexts themselves and every operation is ordinary modular
// arithmetic. It reproduces the paper's VF-MOCK baseline, which isolates
// the cost of the federated protocol from the cost of the cryptosystem.
//
// MockScheme is NOT private: it must never be used outside benchmarking.
type MockScheme struct {
	n    *big.Int
	bits int
	half *big.Int
}

// NewMock creates a mock scheme whose plaintext space is [0, 2^bits).
// A power-of-two modulus keeps serialized values small while preserving
// the wrap-around semantics the encoders rely on.
func NewMock(bits int) *MockScheme {
	if bits < 64 {
		bits = 64
	}
	n := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	return &MockScheme{
		n:    n,
		bits: bits,
		half: new(big.Int).Rsh(n, 1),
	}
}

func (s *MockScheme) Name() string { return "mock" }
func (s *MockScheme) N() *big.Int  { return s.n }
func (s *MockScheme) Bits() int    { return s.bits }

// HalfN returns the precomputed n/2 threshold used by Signed.
func (s *MockScheme) HalfN() *big.Int { return s.half }

func (s *MockScheme) Encrypt(m *big.Int) (Ciphertext, error) {
	if m.Sign() < 0 || m.Cmp(s.n) >= 0 {
		return nil, fmt.Errorf("he: mock plaintext out of range")
	}
	return mockCt{new(big.Int).Set(m)}, nil
}

func (s *MockScheme) EncryptZero() Ciphertext { return mockCt{new(big.Int)} }

func (s *MockScheme) Add(a, b Ciphertext) Ciphertext {
	return mockCt{s.wrap(new(big.Int).Add(a.(mockCt).v, b.(mockCt).v))}
}

func (s *MockScheme) AddInto(dst, b Ciphertext) Ciphertext {
	d := dst.(mockCt)
	s.wrap(d.v.Add(d.v, b.(mockCt).v))
	return d
}

// wrap reduces a sum v from [0, 2n) into [0, n) in place. Every ciphertext
// carries a residue in [0, n) — Encrypt and Unmarshal range-check,
// MulScalar reduces — so a sum is below 2n, and one compare-and-correct
// does what a big.Int division did: VF-MOCK prices the protocol without
// the cryptosystem, and that division was a cost of neither.
func (s *MockScheme) wrap(v *big.Int) *big.Int {
	if v.Cmp(s.n) >= 0 {
		v.Sub(v, s.n)
	}
	return v
}

func (s *MockScheme) MulScalar(a Ciphertext, k *big.Int) Ciphertext {
	v := new(big.Int).Mul(a.(mockCt).v, k)
	v.Mod(v, s.n)
	return mockCt{v}
}

func (s *MockScheme) Marshal(ct Ciphertext) []byte {
	return ct.(mockCt).v.Bytes()
}

func (s *MockScheme) Unmarshal(b []byte) (Ciphertext, error) {
	v := new(big.Int).SetBytes(b)
	if v.Cmp(s.n) >= 0 {
		return nil, fmt.Errorf("he: mock ciphertext out of range")
	}
	return mockCt{v}, nil
}

// CiphertextBytes reflects that VF-MOCK ships plaintext-sized values.
func (s *MockScheme) CiphertextBytes() int { return s.bits / 8 }

// Decrypt returns the carried plaintext; the mock scheme is its own
// decryptor.
func (s *MockScheme) Decrypt(ct Ciphertext) (*big.Int, error) {
	return new(big.Int).Set(ct.(mockCt).v), nil
}

var _ Decryptor = (*MockScheme)(nil)
