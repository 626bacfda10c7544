// Package paillier implements the Paillier additively homomorphic
// cryptosystem (Paillier, EUROCRYPT 1999) on top of math/big.
//
// The implementation follows the optimizations that are standard for
// GBDT-style federated learning workloads:
//
//   - encryption uses the g = n+1 shortcut, so g^m mod n² is computed as
//     (1 + m·n) mod n² with one multiplication instead of a modular
//     exponentiation; the remaining cost is the obfuscation term r^n mod n²;
//   - decryption uses the Chinese Remainder Theorem, replacing one
//     exponentiation modulo n² with two half-size exponentiations modulo
//     p² and q²;
//   - homomorphic addition (HAdd) is a single modular multiplication and
//     scalar multiplication (SMul) a modular exponentiation, exactly the
//     cost model of Section 5 of the VF²Boost paper;
//   - SMul by a power of two — all the training protocol ever multiplies
//     by: packing shifts 2^2W, exponent alignment 16^d — is a chain of
//     log2(k) squarings on the n-adic digits of the ciphertext, each at
//     half the modulus width (squarePow2), returning the same residue
//     big.Int.Exp would; other scalars, and keys under 1024 bits where the
//     chain's fixed overhead outweighs it, go through Exp;
//   - at the paper's 2048-bit key size the hottest modular products —
//     that chain (modulo n), the key owner's fixed-base obfuscator
//     (modulo p² and q², below) and decryption's two CRT
//     exponentiations (modulo p² and q²) — skip big.Int's division: on
//     amd64 with ADX and BMI2 they run in Montgomery form over a 32-word
//     assembly kernel (mont.go), to the same residues. HAdd does too, for
//     callers that keep their accumulators as n-adic digit pairs
//     (Accumulator, Addend; digits.go): three products modulo n in place
//     of one modulo n². Every other width and platform, and AddInto on
//     canonical ciphertexts, stay on big.Int;
//   - optionally, PrivateKey.EnableFastObfuscation replaces the key
//     owner's full r^n ladder with DJN-style short-exponent obfuscators
//     h^x (fixedbase.go), evaluated modulo p² and q² with CRT
//     recombination (owner.go): about two orders of magnitude cheaper
//     at 2048 bits. A PublicKey always draws a fresh r^n.
//
// GenerateKey draws two distinct random primes of equal size and requires
// n = p·q to have exactly the requested bit length with gcd(n, φ(n)) = 1.
// The primes are ordinary random primes, not safe primes: nothing in the
// scheme needs p and q to be safe, and safe-prime generation would slow
// setup by orders of magnitude.
//
// All operations on PublicKey and PrivateKey are safe for concurrent use
// once configured; EnableFastObfuscation and DisableFastObfuscation are
// setup steps that must complete before concurrent use begins.
package paillier

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var one = big.NewInt(1)

// ErrInvalidCiphertext is returned when a ciphertext lies outside (0, n²) —
// the well-formedness every operation requires of wire inputs.
var ErrInvalidCiphertext = errors.New("paillier: ciphertext out of range")

// ErrPlaintextOutOfRange is returned when a plaintext to encrypt lies
// outside [0, n): reducing it modulo n would silently encrypt another
// value.
var ErrPlaintextOutOfRange = errors.New("paillier: plaintext out of range")

// PublicKey holds the public parameters of a Paillier key pair. The
// generator is fixed to g = n+1, which is the common choice and admits the
// fast encryption path.
type PublicKey struct {
	// N is the S-bit modulus n = p·q.
	N *big.Int
	// NSquared is n², the ciphertext modulus.
	NSquared *big.Int
	// halfN is n/2, used to decide the sign of decoded values.
	halfN *big.Int
	// mont is squarePow2's Montgomery state for a 2048-bit n, nil for any
	// other width (see mont.go).
	mont *montChain
}

// PrivateKey holds the factorization of n and the CRT precomputation used
// for fast decryption.
type PrivateKey struct {
	PublicKey
	p, q     *big.Int
	pSquared *big.Int
	qSquared *big.Int
	pOrder   *big.Int // p-1
	qOrder   *big.Int // q-1
	hp       *big.Int // (L_p(g^{p-1} mod p²))^{-1} mod p
	hq       *big.Int // (L_q(g^{q-1} mod q²))^{-1} mod q
	pInvQ    *big.Int // p^{-1} mod q
	// montP, montQ are the Montgomery contexts of p² and q² when they are
	// 2048-bit moduli (a 2048-bit key's primes), else nil: Decrypt runs its
	// two exponentiations on the kernel with them (see mont.go).
	montP, montQ *montModulus
	// owner, when non-nil, serves the key owner's obfuscators from
	// half-size CRT tables (see owner.go). It embeds p² and q² and so
	// lives here, never in PublicKey.
	owner *ownerObfuscator
}

// Ciphertext is a Paillier ciphertext: an element of Z*_{n²}. The zero
// value is not a valid ciphertext; use PublicKey.Encrypt or
// PublicKey.EncryptZero.
type Ciphertext struct {
	C *big.Int
}

// Clone returns a deep copy of the ciphertext.
func (ct Ciphertext) Clone() Ciphertext {
	return Ciphertext{C: new(big.Int).Set(ct.C)}
}

// Bytes returns the big-endian encoding of the ciphertext.
func (ct Ciphertext) Bytes() []byte { return ct.C.Bytes() }

// CiphertextFromBytes reconstructs a ciphertext from Bytes output.
func CiphertextFromBytes(b []byte) Ciphertext {
	return Ciphertext{C: new(big.Int).SetBytes(b)}
}

// GenerateKey generates a Paillier key pair with an S-bit modulus, reading
// randomness from random (crypto/rand.Reader in production). bits must be
// at least 64 and even.
func GenerateKey(random io.Reader, bits int) (*PrivateKey, error) {
	if bits < 64 || bits%2 != 0 {
		return nil, fmt.Errorf("paillier: invalid modulus size %d (need even, >= 64)", bits)
	}
	for {
		p, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating p: %w", err)
		}
		q, err := rand.Prime(random, bits/2)
		if err != nil {
			return nil, fmt.Errorf("paillier: generating q: %w", err)
		}
		if p.Cmp(q) == 0 {
			continue
		}
		n := new(big.Int).Mul(p, q)
		if n.BitLen() != bits {
			continue
		}
		// gcd(n, (p-1)(q-1)) must be 1; with equal-size primes this
		// only fails if p | q-1 or q | p-1, which is vanishingly rare,
		// but check anyway.
		pm1 := new(big.Int).Sub(p, one)
		qm1 := new(big.Int).Sub(q, one)
		phi := new(big.Int).Mul(pm1, qm1)
		if new(big.Int).GCD(nil, nil, n, phi).Cmp(one) != 0 {
			continue
		}
		return newPrivateKey(p, q), nil
	}
}

func newPrivateKey(p, q *big.Int) *PrivateKey {
	n := new(big.Int).Mul(p, q)
	n2 := new(big.Int).Mul(n, n)
	priv := &PrivateKey{
		PublicKey: PublicKey{
			N:        n,
			NSquared: n2,
			halfN:    new(big.Int).Rsh(n, 1),
			mont:     newMontChain(n, n2),
		},
		p:        p,
		q:        q,
		pSquared: new(big.Int).Mul(p, p),
		qSquared: new(big.Int).Mul(q, q),
		pOrder:   new(big.Int).Sub(p, one),
		qOrder:   new(big.Int).Sub(q, one),
		pInvQ:    new(big.Int).ModInverse(p, q),
	}
	priv.montP = newMontModulus(priv.pSquared)
	priv.montQ = newMontModulus(priv.qSquared)
	// hp = L_p(g^{p-1} mod p²)^{-1} mod p with g = n+1.
	// g^{p-1} mod p² = (1+n)^{p-1} = 1 + (p-1)·n mod p², so
	// L_p(...) = ((p-1)·n mod p²) / p ... computed directly below.
	g := new(big.Int).Add(n, one)
	gp := new(big.Int).Exp(g, priv.pOrder, priv.pSquared)
	priv.hp = new(big.Int).ModInverse(lFunc(gp, p), p)
	gq := new(big.Int).Exp(g, priv.qOrder, priv.qSquared)
	priv.hq = new(big.Int).ModInverse(lFunc(gq, q), q)
	return priv
}

// lFunc computes L_d(x) = (x-1)/d.
func lFunc(x, d *big.Int) *big.Int {
	r := new(big.Int).Sub(x, one)
	return r.Div(r, d)
}

// Public returns the public half of the key.
func (priv *PrivateKey) Public() *PublicKey { return &priv.PublicKey }

// NewPublicKey reconstructs a public key from its modulus, as shared with
// passive parties at session setup.
func NewPublicKey(n *big.Int) *PublicKey {
	n2 := new(big.Int).Mul(n, n)
	return &PublicKey{
		N:        n,
		NSquared: n2,
		halfN:    new(big.Int).Rsh(n, 1),
		mont:     newMontChain(n, n2),
	}
}

// randomUnit draws r uniformly from Z*_n.
func (pk *PublicKey) randomUnit(random io.Reader) (*big.Int, error) {
	for {
		r, err := rand.Int(random, pk.N)
		if err != nil {
			return nil, err
		}
		if r.Sign() == 0 {
			continue
		}
		if new(big.Int).GCD(nil, nil, r, pk.N).Cmp(one) == 0 {
			return r, nil
		}
	}
}

// Obfuscator computes a fresh obfuscation term r^n mod n² for a random
// unit r: the expensive part of encryption, a full S-bit exponentiation.
func (pk *PublicKey) Obfuscator(random io.Reader) (*big.Int, error) {
	r, err := pk.randomUnit(random)
	if err != nil {
		return nil, fmt.Errorf("paillier: drawing obfuscation randomness: %w", err)
	}
	return r.Exp(r, pk.N, pk.NSquared), nil
}

// Encrypt encrypts the plaintext m, which must lie in [0, n) (anything
// else is ErrPlaintextOutOfRange). It draws a fresh obfuscator from random.
func (pk *PublicKey) Encrypt(random io.Reader, m *big.Int) (Ciphertext, error) {
	if err := pk.ValidatePlaintext(m); err != nil {
		return Ciphertext{}, err
	}
	rn, err := pk.Obfuscator(random)
	if err != nil {
		return Ciphertext{}, err
	}
	return pk.EncryptWithObfuscator(m, rn), nil
}

// ValidatePlaintext rejects plaintexts outside [0, n) with
// ErrPlaintextOutOfRange. Every Encrypt checks it before drawing an
// obfuscator; a caller that supplies its own (EncryptWithObfuscator)
// checks it first.
func (pk *PublicKey) ValidatePlaintext(m *big.Int) error {
	if m == nil || m.Sign() < 0 || m.Cmp(pk.N) >= 0 {
		return ErrPlaintextOutOfRange
	}
	return nil
}

// EncryptWithObfuscator encrypts m using a precomputed obfuscation term
// rn = r^n mod n². The obfuscator must not be reused across messages.
//
// With g = n+1, g^m mod n² = 1 + m·n mod n², so the ciphertext is
// (1 + m·n)·rn mod n².
func (pk *PublicKey) EncryptWithObfuscator(m, rn *big.Int) Ciphertext {
	gm := new(big.Int).Mul(m, pk.N)
	gm.Add(gm, one)
	gm.Mod(gm, pk.NSquared)
	gm.Mul(gm, rn)
	gm.Mod(gm, pk.NSquared)
	return Ciphertext{C: gm}
}

// EncryptInt64 encrypts a (possibly negative) int64 by wrapping negatives
// around the modulus, matching the signed convention of DecryptInt64.
func (pk *PublicKey) EncryptInt64(random io.Reader, v int64) (Ciphertext, error) {
	m := big.NewInt(v)
	if v < 0 {
		m.Add(m, pk.N)
	}
	return pk.Encrypt(random, m)
}

// Add returns the homomorphic sum of two ciphertexts: Dec(Add(a,b)) =
// Dec(a) + Dec(b) mod n. This is the HAdd operation of the paper.
func (pk *PublicKey) Add(a, b Ciphertext) Ciphertext {
	c := new(big.Int).Mul(a.C, b.C)
	c.Mod(c, pk.NSquared)
	return Ciphertext{C: c}
}

// AddInto accumulates b into dst in place, avoiding an allocation per
// addition: dst = dst·b mod n². dst must hold a valid ciphertext.
func (pk *PublicKey) AddInto(dst *Ciphertext, b Ciphertext) {
	dst.C.Mul(dst.C, b.C)
	dst.C.Mod(dst.C, pk.NSquared)
}

// ValidateCiphertext rejects ciphertexts outside (0, n²). Every ciphertext
// deserialized from the wire must pass through this check before being fed
// to homomorphic operations; a value outside the group is either
// corruption or an attack, never a legal ciphertext.
func (pk *PublicKey) ValidateCiphertext(ct Ciphertext) error {
	if ct.C == nil || ct.C.Sign() <= 0 || ct.C.Cmp(pk.NSquared) >= 0 {
		return ErrInvalidCiphertext
	}
	return nil
}

// MulScalar returns the ciphertext of k·m given the ciphertext of m: the
// SMul operation. Any k outside [0, n) — negative or oversized, as packing
// shifts can be — is reduced modulo n first, so the exponentiation never
// pays for more than n's width. Invalid ciphertexts error, never panic.
//
// A power-of-two k — every scalar on the training path: packing shifts by
// 2^2W, exponent alignment by 16^d — takes the half-width squaring chain of
// squarePow2 when the key is wide enough for it to win; any other scalar
// (fedlr's residual weights) takes big.Int.Exp. Both produce the same
// residue in [0, n²).
func (pk *PublicKey) MulScalar(ct Ciphertext, k *big.Int) (Ciphertext, error) {
	if err := pk.ValidateCiphertext(ct); err != nil {
		return Ciphertext{}, err
	}
	e := pk.reduceScalar(k)
	if s, ok := pow2Exponent(e); ok && pk.N.BitLen() >= pow2ChainMinBits {
		return Ciphertext{C: pk.squarePow2(ct.C, s)}, nil
	}
	return Ciphertext{C: new(big.Int).Exp(ct.C, e, pk.NSquared)}, nil
}

// reduceScalar returns k mod n, k itself when it already lies in [0, n).
func (pk *PublicKey) reduceScalar(k *big.Int) *big.Int {
	if k.Sign() < 0 || k.Cmp(pk.N) >= 0 {
		return new(big.Int).Mod(k, pk.N)
	}
	return k
}

// pow2Exponent reports whether e = 2^s.
func pow2Exponent(e *big.Int) (s int, ok bool) {
	s = e.BitLen() - 1
	return s, s >= 0 && e.TrailingZeroBits() == uint(s)
}

// pow2ChainMinBits is the modulus size from which squarePow2 beats
// big.Int.Exp. The chain's per-step overhead (two QuoRem calls) is fixed
// while its saving grows with the width: measured for 2^114 on the 2-CPU
// host, 256-bit 54 vs 24 µs and 512-bit 92 vs 62 µs (Exp wins), 1024-bit
// 207 vs 229 µs and 2048-bit 0.59 vs 0.92 ms (the chain wins, as it does
// for 16 and 16³ from 1024 bits up). At 2048 bits the Montgomery kernel
// takes the QuoRem calls out of the chain (montChain.squarePow2) and
// widens the margin; the threshold is the big.Int chain's, which every
// key from 1024 bits up runs wherever the kernel does not apply.
const pow2ChainMinBits = 1024

// squarePow2 returns c^(2^s) mod n² for c in [0, n²) without touching c. It
// squares in the n-adic form c = a + b·n (a, b < n): since (b·n)² ≡ 0,
//
//	c² ≡ a² + 2ab·n = (a² mod n) + (⌊a²/n⌋ + 2ab)·n  (mod n²),
//
// so one step is a half-width square, a half-width product and two
// 2S→S-bit divisions where a full-width step is an S·2-bit square and a
// 4S→2S-bit division — about half the word multiplications — and Montgomery
// Exp additionally pays a window table, the R² mod n² setup and padding
// squarings to spend on an exponent with one set bit. The digits are
// recombined once at the end, so the result is the canonical residue Exp
// returns, bit for bit. A 2048-bit n runs the same chain in Montgomery
// form on the kernel when montKernel is set (montChain.squarePow2).
func (pk *PublicKey) squarePow2(c *big.Int, s int) *big.Int {
	if montKernel && pk.mont != nil {
		return pk.mont.squarePow2(c, s)
	}
	a, b := new(big.Int), new(big.Int)
	b.QuoRem(c, pk.N, a)
	var sq, q, t big.Int // scratch: their backing arrays are reused by every step
	for ; s > 0; s-- {
		t.Mul(a, b)
		sq.Mul(a, a)
		q.QuoRem(&sq, pk.N, a)
		t.Lsh(&t, 1)
		t.Add(&t, &q)
		q.QuoRem(&t, pk.N, b)
	}
	b.Mul(b, pk.N)
	return b.Add(b, a)
}

// EncryptZero returns a deterministic, non-obfuscated encryption of zero
// (the identity element for Add). It is used to initialize histogram bins;
// bins that are about to be accumulated with obfuscated ciphertexts do not
// need their own obfuscation.
func (pk *PublicKey) EncryptZero() Ciphertext {
	return Ciphertext{C: big.NewInt(1)}
}

// Decrypt recovers the plaintext in [0, n) using CRT acceleration.
func (priv *PrivateKey) Decrypt(ct Ciphertext) (*big.Int, error) {
	if err := priv.ValidateCiphertext(ct); err != nil {
		return nil, err
	}
	// mp = L_p(c^{p-1} mod p²)·hp mod p
	mp := lFunc(crtExp(ct.C, priv.pOrder, priv.pSquared, priv.montP), priv.p)
	mp.Mul(mp, priv.hp)
	mp.Mod(mp, priv.p)
	// mq = L_q(c^{q-1} mod q²)·hq mod q
	mq := lFunc(crtExp(ct.C, priv.qOrder, priv.qSquared, priv.montQ), priv.q)
	mq.Mul(mq, priv.hq)
	mq.Mod(mq, priv.q)
	// CRT combine: m = mp + p·((mq - mp)·p^{-1} mod q)
	u := new(big.Int).Sub(mq, mp)
	u.Mul(u, priv.pInvQ)
	u.Mod(u, priv.q)
	u.Mul(u, priv.p)
	u.Add(u, mp)
	return u, nil
}

// crtExp returns c^e mod m for one of Decrypt's prime-square moduli: on
// the Montgomery kernel when it is selected and m has a context mm, else
// by big.Int.Exp, to the same residue.
func crtExp(c, e, m *big.Int, mm *montModulus) *big.Int {
	if montKernel && mm != nil {
		return mm.exp(c, e)
	}
	return new(big.Int).Exp(c, e, m)
}

// DecryptInt64 decrypts and interprets plaintexts in the upper half of
// [0, n) as negative numbers, the inverse of EncryptInt64.
func (priv *PrivateKey) DecryptInt64(ct Ciphertext) (int64, error) {
	m, err := priv.Decrypt(ct)
	if err != nil {
		return 0, err
	}
	if m.Cmp(priv.halfN) > 0 {
		m.Sub(m, priv.N)
	}
	if !m.IsInt64() {
		return 0, errors.New("paillier: plaintext does not fit in int64")
	}
	return m.Int64(), nil
}

// Signed maps a plaintext in [0, n) to its signed representative in
// (-n/2, n/2], which is how negative encoded values are recovered.
func (pk *PublicKey) Signed(m *big.Int) *big.Int {
	if m.Cmp(pk.halfN) > 0 {
		return new(big.Int).Sub(m, pk.N)
	}
	return m
}

// Bits returns the modulus size S in bits.
func (pk *PublicKey) Bits() int { return pk.N.BitLen() }
