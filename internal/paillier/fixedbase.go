package paillier

// Windowed fixed-base exponentiation and DJN-style fast obfuscation.
//
// The baseline obfuscator r^n mod n² costs a full S-bit exponentiation per
// encryption — the dominant term of the paper's Enc cost model. Following
// Damgård–Jurik–Nielsen (CT-RSA 2010, §4.2), a single random n-th residue
// h = r₀^n mod n² is derived at key setup; each obfuscator is then h^x for
// a short random exponent x. Because h generates (a large subgroup of) the
// n-th residues, h^x is itself an n-th residue, and under the standard
// short-exponent indistinguishability assumption a 2·112-bit x makes h^x
// computationally indistinguishable from a fresh r^n (112 bits being the
// NIST security level of a 2048-bit modulus).
//
// The short exponentiation is served by a FixedBase table: with window
// width w, precomputed entries h^(j·2^(w·i)) reduce h^x to at most
// ⌈bits(x)/w⌉ modular multiplications and zero squarings. At w = 4 and a
// 224-bit exponent that is ≤ 56 multiplications mod n² versus the ~3·S/2
// operations of the full r^n ladder — an order of magnitude cheaper, which
// is the speedup BENCH_crypto.json tracks.

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"math/bits"
)

// DefaultObfuscationBits is the short-exponent length fast obfuscation
// uses for moduli up to 2048 bits: twice the 112-bit symmetric-equivalent
// strength of a 2048-bit modulus, the usual margin for short-exponent
// subgroup assumptions. Larger moduli get longer exponents — see
// DefaultObfuscationBitsFor.
const DefaultObfuscationBits = 224

// DefaultObfuscationBitsFor returns the short-exponent length used when
// the caller does not choose one: twice the NIST symmetric-equivalent
// strength of the modulus size (SP 800-57: 2048→112, 3072→128, 7680→192,
// 15360→256 bits of strength). Moduli below 3072 bits — including the
// small keys the tests use — take the 2048-bit figure; the short exponent
// must never promise more strength than the modulus itself delivers.
func DefaultObfuscationBitsFor(modBits int) int {
	switch {
	case modBits >= 15360:
		return 512
	case modBits >= 7680:
		return 384
	case modBits >= 3072:
		return 256
	default:
		return DefaultObfuscationBits
	}
}

// maxObfuscationBits bounds the short-exponent length a caller (or, via
// the session-setup message, a remote peer) may select: an exponent as
// wide as n² itself. Beyond that, extra width buys no entropy — the
// subgroup order divides λ(n²) — while the fixed-base tables grow
// linearly in expBits, so an unbounded value is a memory-exhaustion
// vector on whoever builds the tables.
func maxObfuscationBits(modBits int) int { return 2 * modBits }

// fixedBaseWindow is the window width w of the public tables; 2^w−1
// entries per window. Width 4 balances table size (15 entries per window,
// ~430 KiB at S = 2048) against multiplication count (one per non-zero
// window). The key owner's tables use ownerWindow instead (owner.go).
const fixedBaseWindow = 4

// FixedBase holds precomputed power tables for exponentiating one fixed
// base modulo one fixed modulus. It is safe for concurrent use after
// construction (Exp only reads the tables).
type FixedBase struct {
	base   *big.Int
	mod    *big.Int
	window uint
	tables [][]*big.Int // tables[i][j-1] = base^(j·2^(w·i)) mod m
}

// NewFixedBase precomputes tables covering exponents up to maxBits bits.
// The one-time cost is roughly one full exponentiation's worth of modular
// multiplications; every subsequent Exp is ⌈maxBits/w⌉ multiplications.
func NewFixedBase(base, mod *big.Int, maxBits int) *FixedBase {
	return newFixedBase(base, mod, maxBits, fixedBaseWindow)
}

// newFixedBase is NewFixedBase at window width w: table size grows as
// 2^w/w, multiplication count falls as 1/w.
func newFixedBase(base, mod *big.Int, maxBits int, w uint) *FixedBase {
	if maxBits < 1 {
		maxBits = 1
	}
	numWindows := (maxBits + int(w) - 1) / int(w)
	fb := &FixedBase{
		base:   new(big.Int).Set(base),
		mod:    new(big.Int).Set(mod),
		window: w,
		tables: make([][]*big.Int, numWindows),
	}
	cur := new(big.Int).Mod(base, mod)
	for i := range fb.tables {
		row := make([]*big.Int, (1<<w)-1)
		row[0] = new(big.Int).Set(cur)
		for j := 1; j < len(row); j++ {
			row[j] = new(big.Int).Mul(row[j-1], cur)
			row[j].Mod(row[j], mod)
		}
		fb.tables[i] = row
		if i+1 < len(fb.tables) {
			// base^(2^(w·(i+1))) = row[2^w−1] · cur.
			cur = new(big.Int).Mul(row[len(row)-1], cur)
			cur.Mod(cur, mod)
		}
	}
	return fb
}

// MaxBits is the largest exponent width the tables cover.
func (fb *FixedBase) MaxBits() int { return len(fb.tables) * int(fb.window) }

// Exp computes base^x mod m for non-negative x. Exponents wider than
// MaxBits fall back to math/big's general ladder, so the result is always
// correct; only the precomputed range is fast.
func (fb *FixedBase) Exp(x *big.Int) *big.Int {
	if !fb.covers(x) {
		return new(big.Int).Exp(fb.base, x, fb.mod)
	}
	var s expScratch
	acc := new(big.Int)
	fb.expInto(acc, x, &s)
	return acc
}

// covers reports whether x lies in the precomputed range.
func (fb *FixedBase) covers(x *big.Int) bool {
	return x.Sign() >= 0 && x.BitLen() <= fb.MaxBits()
}

// expScratch is the working storage of one expInto call; reusing it
// across calls makes the window loop allocation-free.
type expScratch struct {
	prod, quo big.Int
}

// expInto sets acc = base^x mod m for an x that covers() accepts, using
// only the storage of acc and s: one table multiplication per non-zero
// window, no squarings.
func (fb *FixedBase) expInto(acc, x *big.Int, s *expScratch) {
	acc.SetUint64(1)
	words, n := x.Bits(), uint(x.BitLen())
	for i := uint(0); i*fb.window < n; i++ {
		if v := windowAt(words, i*fb.window, fb.window); v != 0 {
			s.prod.Mul(acc, fb.tables[i][v-1])
			s.quo.QuoRem(&s.prod, fb.mod, acc)
		}
	}
}

// windowAt extracts the w-bit window of x that starts at the given bit;
// bit must lie inside x.
func windowAt(x []big.Word, bit, w uint) uint {
	i, off := bit/bits.UintSize, bit%bits.UintSize
	v := uint(x[i]) >> off
	if off+w > bits.UintSize && int(i)+1 < len(x) {
		v |= uint(x[i+1]) << (bits.UintSize - off)
	}
	return v & (1<<w - 1)
}

// fastObfuscator produces obfuscators as h^x over a FixedBase table.
type fastObfuscator struct {
	h       *big.Int
	expBits int
	expMax  *big.Int // 2^expBits, exclusive bound for the short exponent
	fb      *FixedBase
}

// newFastObfuscator builds the table set for base h. expBits must be
// positive and pre-bounded by the caller (resolveObfuscationBits): table
// size is linear in expBits.
func newFastObfuscator(h *big.Int, expBits int, n2 *big.Int) *fastObfuscator {
	return &fastObfuscator{
		h:       new(big.Int).Set(h),
		expBits: expBits,
		expMax:  new(big.Int).Lsh(one, uint(expBits)),
		fb:      NewFixedBase(h, n2, expBits),
	}
}

// obfuscator draws a short random exponent x ∈ [1, 2^expBits) and returns
// h^x mod n².
func (f *fastObfuscator) obfuscator(random io.Reader) (*big.Int, error) {
	for {
		x, err := rand.Int(random, f.expMax)
		if err != nil {
			return nil, fmt.Errorf("paillier: drawing obfuscation exponent: %w", err)
		}
		if x.Sign() != 0 {
			return f.fb.Exp(x), nil
		}
	}
}

// resolveObfuscationBits applies the modulus-derived default and rejects
// lengths past the table-size bound. Every path that builds a
// fastObfuscator resolves through here, so no caller-supplied (or
// wire-supplied) value can size the precomputation tables unchecked.
func (pk *PublicKey) resolveObfuscationBits(expBits int) (int, error) {
	if expBits <= 0 {
		return DefaultObfuscationBitsFor(pk.Bits()), nil
	}
	if max := maxObfuscationBits(pk.Bits()); expBits > max {
		return 0, fmt.Errorf("paillier: obfuscation exponent length %d exceeds bound %d for a %d-bit modulus", expBits, max, pk.Bits())
	}
	return expBits, nil
}

// EnableFastObfuscation derives a random obfuscation base h = r₀^n mod n²
// and switches Obfuscator (and everything built on it: Encrypt,
// ObfuscatorPool) to the fast h^x path. expBits <= 0 selects the
// modulus-derived default (DefaultObfuscationBitsFor); random nil selects
// crypto/rand.Reader.
//
// Enable the fast path before the key is used concurrently (it is a plain
// configuration write, deliberately not synchronized against in-flight
// encryptions). Calling it again is a no-op.
func (pk *PublicKey) EnableFastObfuscation(random io.Reader, expBits int) error {
	if pk.fast != nil {
		return nil
	}
	expBits, err := pk.resolveObfuscationBits(expBits)
	if err != nil {
		return err
	}
	if random == nil {
		random = rand.Reader
	}
	for {
		h, err := pk.BaselineObfuscator(random)
		if err != nil {
			return err
		}
		// r₀ = 1 would fix every obfuscator to 1; redraw (probability 1/n).
		if h.Cmp(one) != 0 {
			pk.fast = newFastObfuscator(h, expBits, pk.NSquared)
			return nil
		}
	}
}

// SetObfuscationBase installs an obfuscation base received from the key
// owner (the session-setup message), enabling fast obfuscation on a
// passive party's reconstructed public key. Both wire-supplied values are
// validated before any allocation: the base must be a unit of Z*_{n²} and
// expBits must be within the table-size bound (expBits <= 0 selects the
// modulus-derived default) — a malformed or hostile setup frame must not
// crash encryption, exhaust memory building tables, or silently disable
// obfuscation.
//
// What cannot be validated here: that h really is an n-th residue.
// Deciding n-th residuosity without the factorization of n is exactly the
// DCR problem Paillier's security rests on, so a passive party must trust
// the key owner to derive h honestly (a non-residue base would let the
// key owner bias decrypted plaintexts by a chosen offset and void the
// short-exponent indistinguishability argument). This is inherent to the
// DJN scheme; see docs/PROTOCOL.md §Session setup for the trust model.
func (pk *PublicKey) SetObfuscationBase(h *big.Int, expBits int) error {
	expBits, err := pk.resolveObfuscationBits(expBits)
	if err != nil {
		return err
	}
	if h == nil || h.Sign() <= 0 || h.Cmp(pk.NSquared) >= 0 {
		return errors.New("paillier: obfuscation base out of range")
	}
	if h.Cmp(one) == 0 {
		return errors.New("paillier: obfuscation base is the identity")
	}
	if new(big.Int).GCD(nil, nil, h, pk.N).Cmp(one) != 0 {
		return errors.New("paillier: obfuscation base shares a factor with n")
	}
	pk.fast = newFastObfuscator(h, expBits, pk.NSquared)
	return nil
}

// DisableFastObfuscation reverts Obfuscator to the baseline r^n path, so
// a key shared across sessions can serve an exact-paper baseline run after
// a fast one. Like the enable calls, it is a setup step.
func (pk *PublicKey) DisableFastObfuscation() { pk.fast = nil }

// FastObfuscation reports whether the fast h^x path is enabled.
func (pk *PublicKey) FastObfuscation() bool { return pk.fast != nil }

// ObfuscationBase returns the derived base h = r₀^n mod n², or nil when
// fast obfuscation is disabled. The caller must treat it as read-only; it
// is public material, shipped to passive parties at session setup.
func (pk *PublicKey) ObfuscationBase() *big.Int {
	if pk.fast == nil {
		return nil
	}
	return pk.fast.h
}

// ObfuscationBits returns the short-exponent length in bits, or 0 when
// fast obfuscation is disabled.
func (pk *PublicKey) ObfuscationBits() int {
	if pk.fast == nil {
		return 0
	}
	return pk.fast.expBits
}
