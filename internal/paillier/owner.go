package paillier

// Key-owner obfuscation.
//
// The public fast path (fixedbase.go) evaluates the DJN obfuscator h^x in
// Z*_{n²}, the only ring a passive party can work in. The key owner knows
// p and q, so it evaluates the same group element in the two half-size
// rings Z*_{p²} and Z*_{q²} and recombines by the Chinese Remainder
// Theorem — the idiom Decrypt already uses. A multiplication modulo p² is
// about a quarter of one modulo n², and because half-size table entries
// are half as large the owner can afford a wider window (fewer
// multiplications) in the same order of memory. For the same x the result
// is the same element of Z*_{n²}, so nothing on the wire, in the model or
// in the security parameters changes.
//
// The tables embed p² and q², so they hang off PrivateKey and are never
// reachable from the PublicKey a PrivateKey hands out.

import (
	"crypto/rand"
	"fmt"
	"io"
	"math/big"
	"sync"
)

// ownerWindow is the window width of the owner's tables: 255 half-size
// entries per 8-bit window, ~3.6 MB for both primes at S = 2048 with the
// default 224-bit exponent, and 28 multiplications per prime where the
// public window-4 tables need 56 modulo n².
const ownerWindow = 8

// ownerObfuscator serves h^x mod n² from fixed-base tables modulo p² and
// q². It is safe for concurrent use.
type ownerObfuscator struct {
	// h is the public base the tables were built for — the same *big.Int
	// as PublicKey.fast.h, which is how staleness is detected.
	h       *big.Int
	expMax  *big.Int   // 2^expBits, exclusive bound for the short exponent
	fp, fq  *FixedBase // tables modulo p² and modulo q²
	p2InvQ2 *big.Int   // (p²)^{-1} mod q²
	scratch sync.Pool
}

// ownerScratch is the working storage of one obfuscator evaluation.
type ownerScratch struct {
	exp    expScratch
	ap, aq big.Int
	d, t   big.Int
}

func newOwnerObfuscator(priv *PrivateKey, f *fastObfuscator) *ownerObfuscator {
	return &ownerObfuscator{
		h:       f.h,
		expMax:  f.expMax,
		fp:      newFixedBase(f.h, priv.pSquared, f.expBits, ownerWindow),
		fq:      newFixedBase(f.h, priv.qSquared, f.expBits, ownerWindow),
		p2InvQ2: new(big.Int).ModInverse(priv.pSquared, priv.qSquared),
		scratch: sync.Pool{New: func() any { return new(ownerScratch) }},
	}
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
// h^x mod n² — the same distribution as fastObfuscator.obfuscator.
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

// EnableFastObfuscation enables the fast h^x path on the key (see
// PublicKey.EnableFastObfuscation) and builds the owner's half-size
// tables for the derived base, so that Obfuscator and Encrypt called on
// the private key take the CRT route. Passive parties and anyone holding
// Public() keep the public window-4 path. Like every enable/disable call
// it is a setup step, not synchronized against in-flight encryptions;
// calling it again is a no-op.
func (priv *PrivateKey) EnableFastObfuscation(random io.Reader, expBits int) error {
	if err := priv.PublicKey.EnableFastObfuscation(random, expBits); err != nil {
		return err
	}
	if !priv.OwnerObfuscation() {
		priv.owner = newOwnerObfuscator(priv, priv.fast)
	}
	return nil
}

// DisableFastObfuscation reverts both the public and the owner path to
// the baseline r^n obfuscator and releases the owner tables.
func (priv *PrivateKey) DisableFastObfuscation() {
	priv.PublicKey.DisableFastObfuscation()
	priv.owner = nil
}

// OwnerObfuscation reports whether Obfuscator on the private key is
// served by the owner's CRT tables. Tables built for a base the public
// key no longer carries (fast obfuscation was disabled or re-derived
// through Public()) do not count and are not used.
func (priv *PrivateKey) OwnerObfuscation() bool {
	return priv.owner != nil && priv.fast != nil && priv.owner.h == priv.fast.h
}

// Obfuscator computes a fresh obfuscation term like PublicKey.Obfuscator,
// through the owner's CRT tables when they are enabled.
func (priv *PrivateKey) Obfuscator(random io.Reader) (*big.Int, error) {
	if priv.OwnerObfuscation() {
		return priv.owner.obfuscator(random)
	}
	return priv.PublicKey.Obfuscator(random)
}

// Encrypt encrypts m ∈ [0, n) like PublicKey.Encrypt, drawing the
// obfuscator from the owner path.
func (priv *PrivateKey) Encrypt(random io.Reader, m *big.Int) (Ciphertext, error) {
	rn, err := priv.Obfuscator(random)
	if err != nil {
		return Ciphertext{}, err
	}
	return priv.EncryptWithObfuscator(m, rn), nil
}
