package paillier

// Windowed fixed-base exponentiation for the key owner's DJN-style fast
// obfuscation.
//
// The baseline obfuscator r^n mod n² costs a full S-bit exponentiation per
// encryption — the dominant term of the paper's Enc cost model. Following
// Damgård–Jurik–Nielsen (CT-RSA 2010, §4.2), the key owner derives a
// single random n-th residue h = r₀^n mod n² at key setup; each
// obfuscator is then h^x for a short random exponent x. Because h
// generates (a large subgroup of) the n-th residues, h^x is itself an n-th
// residue, and under the standard short-exponent indistinguishability
// assumption a 2·112-bit x makes h^x computationally indistinguishable
// from a fresh r^n (112 bits being the NIST security level of a 2048-bit
// modulus).
//
// The short exponentiation is served by fixedBase tables: with window
// width w, precomputed entries h^(j·2^(w·i)) reduce h^x to at most
// ⌈bits(x)/w⌉ modular multiplications and zero squarings. The key owner
// keeps one table modulo p² and one modulo q² (owner.go). Only the key
// owner encrypts, so h never leaves it.

import (
	"math/big"
	"math/bits"
)

// DefaultObfuscationBits is the short-exponent length fast obfuscation
// uses for moduli up to 2048 bits: twice the 112-bit symmetric-equivalent
// strength of a 2048-bit modulus, the usual margin for short-exponent
// subgroup assumptions. Larger moduli get longer exponents — see
// DefaultObfuscationBitsFor.
const DefaultObfuscationBits = 224

// DefaultObfuscationBitsFor returns the short-exponent length of the fast
// path: twice the NIST symmetric-equivalent strength of the modulus size
// (SP 800-57: 2048→112, 3072→128, 7680→192, 15360→256 bits of strength).
// Moduli below 3072 bits — including the small keys the tests use — take
// the 2048-bit figure; the short exponent must never promise more
// strength than the modulus itself delivers.
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

// fixedBase holds precomputed power tables for exponentiating one fixed
// base modulo one fixed modulus. It is safe for concurrent use after
// construction (expInto only reads the tables).
type fixedBase struct {
	mod    *big.Int
	window uint
	tables [][]*big.Int // tables[i][j-1] = base^(j·2^(w·i)) mod m
	// mont is set on 2048-bit moduli when montKernel is: the entries are
	// then kept in montTables in Montgomery form, base^(j·2^(w·i))·R mod
	// m, and tables is nil (see newOwnerTable).
	mont       *montModulus
	montTables [][]nat
}

// newFixedBase precomputes window-w tables covering exponents up to
// maxBits bits: table size grows as 2^w/w, multiplication count falls as
// 1/w. The one-time cost is roughly one full exponentiation's worth of
// modular multiplications; every subsequent expInto is ⌈maxBits/w⌉
// multiplications.
func newFixedBase(base, mod *big.Int, maxBits int, w uint) *fixedBase {
	if maxBits < 1 {
		maxBits = 1
	}
	numWindows := (maxBits + int(w) - 1) / int(w)
	fb := &fixedBase{
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

// maxBits is the largest exponent width the tables cover.
func (fb *fixedBase) maxBits() int {
	return max(len(fb.tables), len(fb.montTables)) * int(fb.window)
}

// covers reports whether x lies in the precomputed range.
func (fb *fixedBase) covers(x *big.Int) bool {
	return x.Sign() >= 0 && x.BitLen() <= fb.maxBits()
}

// expScratch is the working storage of one expInto call; reusing it
// across calls makes the window loop allocation-free.
type expScratch struct {
	prod, quo big.Int
}

// expInto sets acc = base^x mod m for an x that covers() accepts, using
// only the storage of acc and s: one table multiplication per non-zero
// window, no squarings.
func (fb *fixedBase) expInto(acc, x *big.Int, s *expScratch) {
	if fb.mont != nil {
		fb.montExpInto(acc, x)
		return
	}
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
