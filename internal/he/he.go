// Package he defines the additively homomorphic encryption interface that
// the federated GBDT protocol is written against, with two implementations:
//
//   - a real one backed by the Paillier cryptosystem (internal/paillier),
//     used by VF-GBDT and VF²Boost;
//   - a mock one that carries plaintexts through the exact same code path,
//     used by the paper's VF-MOCK baseline to isolate protocol overhead
//     from cryptography cost.
//
// Plaintexts are big integers in [0, N); callers layer fixed-point float
// encoding on top (internal/fixedpoint).
package he

import "math/big"

// Ciphertext is an opaque ciphertext handle produced by a Scheme. Values
// from different schemes must not be mixed.
type Ciphertext interface {
	isCiphertext()
}

// Scheme is the public (encrypting) side of an additively homomorphic
// cryptosystem. Implementations are safe for concurrent use.
type Scheme interface {
	// Name identifies the scheme ("paillier" or "mock").
	Name() string
	// N is the plaintext modulus; plaintexts live in [0, N).
	N() *big.Int
	// Bits is the modulus size S in bits.
	Bits() int
	// Encrypt encrypts m, which must lie in [0, N); every scheme refuses
	// anything else with an error rather than reducing it.
	Encrypt(m *big.Int) (Ciphertext, error)
	// EncryptZero returns the additive identity ciphertext. It need not
	// be obfuscated; it is only used to seed accumulators.
	EncryptZero() Ciphertext
	// Add returns a fresh ciphertext of the sum (HAdd).
	Add(a, b Ciphertext) Ciphertext
	// AddInto accumulates b into dst in place where the implementation
	// supports it, returning the accumulated ciphertext. Callers must
	// use the return value and may not rely on dst remaining valid; b
	// is only read. At 2048 bits with the Montgomery kernel, Paillier
	// keeps the result as an accumulator in n-adic digit form, which
	// every later AddInto multiplies into without a 4096-bit division.
	AddInto(dst, b Ciphertext) Ciphertext
	// MulScalar returns a ciphertext of k·m given a ciphertext of m
	// (SMul). k may be negative.
	MulScalar(a Ciphertext, k *big.Int) Ciphertext
	// Marshal serializes a ciphertext for cross-party transfer.
	Marshal(ct Ciphertext) []byte
	// Unmarshal reverses Marshal, refusing bytes that are not a valid
	// ciphertext. Where Paillier accumulates in digit form the public
	// scheme returns the ciphertext already converted into the form
	// AddInto adds, so a gradient ciphertext pays the conversion once
	// however many bins it lands in; the key owner's Decryptor returns
	// the canonical form Decrypt reads. Marshal still returns the bytes
	// it was given.
	Unmarshal(b []byte) (Ciphertext, error)
	// CiphertextBytes is the serialized size of one ciphertext, used by
	// the WAN shaper to account transfer cost (2S/8 for Paillier).
	CiphertextBytes() int
}

// Decryptor is the private side of the cryptosystem, held only by the
// label-owning Party B.
type Decryptor interface {
	Scheme
	// Decrypt recovers the plaintext in [0, N).
	Decrypt(ct Ciphertext) (*big.Int, error)
}

// halfer is implemented by schemes that precompute N/2 at construction.
// Signed sits in the decrypt hot loop (every decoded histogram bin goes
// through it), so the threshold must not be reallocated per call.
type halfer interface {
	HalfN() *big.Int
}

// Signed maps a plaintext in [0, N) to its signed representative in
// (-N/2, N/2], the convention used to encode negative values. Schemes
// that expose a precomputed N/2 (all in-tree schemes do) make the
// non-negative path allocation-free.
func Signed(s Scheme, m *big.Int) *big.Int {
	var half *big.Int
	if h, ok := s.(halfer); ok {
		half = h.HalfN()
	} else {
		half = new(big.Int).Rsh(s.N(), 1)
	}
	if m.Cmp(half) > 0 {
		return new(big.Int).Sub(m, s.N())
	}
	return m
}
