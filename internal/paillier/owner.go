package paillier

// Key-owner obfuscation.
//
// The key owner knows p and q, so it evaluates the DJN obfuscator h^x
// (fixedbase.go) in the two half-size rings Z*_{p²} and Z*_{q²} and
// recombines by the Chinese Remainder Theorem — the idiom Decrypt already
// uses. A multiplication modulo p² is about a quarter of one modulo n²,
// and because half-size table entries are half as large the owner can
// afford a wide window (fewer multiplications). The result is the element
// h^x of Z*_{n²}, so nothing on the wire, in the model or in the security
// parameters depends on the route.
//
// The tables embed p² and q², so they hang off PrivateKey and are never
// reachable from the PublicKey a PrivateKey hands out, and neither is the
// base h: a PublicKey always obfuscates with a fresh r^n.
//
// For a 2048-bit key p² and q² are 2048-bit moduli, and where montKernel
// is set (mont.go) each prime's table is built and kept in Montgomery form
// only: entries h^(j·2^(8i))·R mod p², the accumulator starting at R mod p²
// and leaving Montgomery form by one REDC before the CRT recombination, so
// no product pays big.Int's division.

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// ownerWindow is the window width of the owner's tables: 255 half-size
// entries per 8-bit window, ~3.6 MB for both primes at S = 2048 with the
// default 224-bit exponent, and 28 multiplications per prime.
const ownerWindow = 8

// ownerObfuscator serves h^x mod n² from fixed-base tables modulo p² and
// q². It is safe for concurrent use.
type ownerObfuscator struct {
	h       *big.Int   // the base r₀^n mod n² the tables were built for
	expMax  *big.Int   // 2^expBits, exclusive bound for the short exponent
	fp, fq  *fixedBase // tables modulo p² and modulo q²
	p2InvQ2 *big.Int   // (p²)^{-1} mod q²
	scratch sync.Pool
}

// ownerScratch is the working storage of one obfuscator evaluation.
type ownerScratch struct {
	exp    expScratch
	ap, aq big.Int
	d, t   big.Int
}

// newOwnerObfuscator builds the tables for base h, covering exponents of
// DefaultObfuscationBitsFor the key's size.
func newOwnerObfuscator(priv *PrivateKey, h *big.Int) *ownerObfuscator {
	expBits := DefaultObfuscationBitsFor(priv.Bits())
	return &ownerObfuscator{
		h:       h,
		expMax:  new(big.Int).Lsh(one, uint(expBits)),
		fp:      newOwnerTable(h, priv.pSquared, expBits),
		fq:      newOwnerTable(h, priv.qSquared, expBits),
		p2InvQ2: new(big.Int).ModInverse(priv.pSquared, priv.qSquared),
		scratch: sync.Pool{New: func() any { return new(ownerScratch) }},
	}
}

// newOwnerTable builds one prime's window-8 table for h modulo m = p² or
// q²: in Montgomery form on the kernel when m is a 2048-bit modulus (any
// prime of a 2048-bit key) and montKernel is set, else on big.Int.
func newOwnerTable(h, m *big.Int, expBits int) *fixedBase {
	if mm := newMontModulus(m); mm != nil && montKernel {
		return newMontFixedBase(h, mm, expBits, ownerWindow)
	}
	return newFixedBase(h, m, expBits, ownerWindow)
}

// exp returns h^x mod n² for x ≥ 0. Exponents wider than the tables take
// math/big's ladder in the half-size rings, so the result is always
// correct.
func (o *ownerObfuscator) exp(x *big.Int) *big.Int {
	s := o.scratch.Get().(*ownerScratch)
	defer o.scratch.Put(s)
	p2, q2 := o.fp.mod, o.fq.mod
	if o.fp.covers(x) {
		o.fp.expInto(&s.ap, x, &s.exp)
		o.fq.expInto(&s.aq, x, &s.exp)
	} else {
		s.ap.Exp(o.h, x, p2)
		s.aq.Exp(o.h, x, q2)
	}
	// CRT: r = ap + p²·((aq − ap)·(p²)^{-1} mod q²), the unique residue
	// modulo n² = p²·q² that is ap modulo p² and aq modulo q².
	s.d.Sub(&s.aq, &s.ap)
	s.exp.quo.QuoRem(&s.d, q2, &s.t)
	if s.t.Sign() < 0 {
		s.t.Add(&s.t, q2)
	}
	s.exp.prod.Mul(&s.t, o.p2InvQ2)
	s.exp.quo.QuoRem(&s.exp.prod, q2, &s.t)
	r := new(big.Int).Mul(&s.t, p2)
	return r.Add(r, &s.ap)
}

// obfuscator draws a short random exponent x ∈ [1, 2^expBits) and returns
// h^x mod n².
func (o *ownerObfuscator) obfuscator(random io.Reader) (*big.Int, error) {
	for {
		x, err := rand.Int(random, o.expMax)
		if err != nil {
			return nil, fmt.Errorf("paillier: drawing obfuscation exponent: %w", err)
		}
		if x.Sign() != 0 {
			return o.exp(x), nil
		}
	}
}

// EnableFastObfuscation derives a random obfuscation base h = r₀^n mod n²
// and builds the owner's half-size tables for it, so that Obfuscator and
// Encrypt on the private key serve short-exponent h^x terms through the
// CRT route. Like DisableFastObfuscation it is a setup step, not
// synchronized against in-flight encryptions; calling it again is a
// no-op.
func (priv *PrivateKey) EnableFastObfuscation(random io.Reader) error {
	if priv.owner != nil {
		return nil
	}
	for {
		h, err := priv.PublicKey.Obfuscator(random)
		if err != nil {
			return err
		}
		// r₀ = 1 would fix every obfuscator to 1; redraw (probability 1/n).
		if h.Cmp(one) != 0 {
			priv.owner = newOwnerObfuscator(priv, h)
			return nil
		}
	}
}

// DisableFastObfuscation reverts the private key to the baseline r^n
// obfuscator and releases the owner tables.
func (priv *PrivateKey) DisableFastObfuscation() { priv.owner = nil }

// OwnerObfuscation reports whether Obfuscator on the private key is
// served by the owner's CRT tables.
func (priv *PrivateKey) OwnerObfuscation() bool { return priv.owner != nil }

// Obfuscator computes a fresh obfuscation term like PublicKey.Obfuscator,
// through the owner's CRT tables when they are enabled.
func (priv *PrivateKey) Obfuscator(random io.Reader) (*big.Int, error) {
	if priv.owner != nil {
		return priv.owner.obfuscator(random)
	}
	return priv.PublicKey.Obfuscator(random)
}

// Encrypt encrypts m ∈ [0, n) like PublicKey.Encrypt, drawing the
// obfuscator from the owner path; m outside [0, n) is
// ErrPlaintextOutOfRange.
func (priv *PrivateKey) Encrypt(random io.Reader, m *big.Int) (Ciphertext, error) {
	if err := priv.ValidatePlaintext(m); err != nil {
		return Ciphertext{}, err
	}
	rn, err := priv.Obfuscator(random)
	if err != nil {
		return Ciphertext{}, err
	}
	return priv.EncryptWithObfuscator(m, rn), nil
}
