package paillier

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
)

// montRunnable reports whether the Montgomery code can run here: always
// over the portable word loop, and over the ADX kernel only on a CPU that
// has ADX and BMI2.
func montRunnable() bool { return !kernelCompiled || kernelAvailable() }

// setMontKernel sets the package switch for the rest of the test. Clearing
// it forces the big.Int path on a host that would select the kernel;
// setting it where only the portable loop is compiled in runs the
// Montgomery arithmetic there too.
func setMontKernel(t testing.TB, on bool) {
	t.Helper()
	old := montKernel
	montKernel = on
	t.Cleanup(func() { montKernel = old })
}

// forEachPath runs f once on the Montgomery path (where it can run) and
// once on the big.Int path when both is set, as subtests path=mont and
// path=big; otherwise it runs f once, directly, on the default path.
func forEachPath(t *testing.T, both bool, f func(t *testing.T)) {
	t.Helper()
	if !both {
		f(t)
		return
	}
	for _, on := range []bool{true, false} {
		if on && !montRunnable() {
			continue
		}
		name := map[bool]string{true: "path=mont", false: "path=big"}[on]
		t.Run(name, func(t *testing.T) {
			setMontKernel(t, on)
			f(t)
		})
	}
}

// montTestModuli are the moduli the kernel is checked at: n, p² and q² of
// a real 2048-bit key, and the two extremes of an odd 2048-bit value —
// every bit set, and only the top and bottom bits set — with a random
// odd modulus of each top word.
func montTestModuli(t *testing.T) map[string]*big.Int {
	priv := testKey(t, 2048)
	rng := mrand.New(mrand.NewSource(2048))
	r := new(big.Int).Lsh(one, montBits)
	topWordOnes := new(big.Int).Rand(rng, new(big.Int).Lsh(one, montBits-64))
	topWordOnes.Add(topWordOnes, new(big.Int).Sub(r, new(big.Int).Lsh(one, montBits-64)))
	topBitOnly := new(big.Int).Rand(rng, new(big.Int).Lsh(one, montBits-64))
	topBitOnly.Add(topBitOnly, new(big.Int).Lsh(one, montBits-1))
	return map[string]*big.Int{
		"n":             priv.N,
		"p²":            priv.pSquared,
		"q²":            priv.qSquared,
		"R−1":           new(big.Int).Sub(r, one),
		"R/2+1":         new(big.Int).Add(new(big.Int).Lsh(one, montBits-1), one),
		"top-word-ones": topWordOnes.SetBit(topWordOnes, 0, 1),
		"top-bit-only":  topBitOnly.SetBit(topBitOnly, 0, 1),
	}
}

// TestMontMulMatchesBigInt checks the kernel's Montgomery product and
// REDC against big.Int — x·y·R⁻¹ mod m and x·R⁻¹ mod m — on 0, 1, m−1
// and random residues, including the reduction words and final-subtraction
// bit the squaring chain relies on (x·y + M·m = (z + j·m)·R), and with the
// result aliasing an operand as the fixed-base loop does.
func TestMontMulMatchesBigInt(t *testing.T) {
	if !montRunnable() {
		t.Skip("CPU lacks ADX/BMI2: the kernel cannot run here")
	}
	r := new(big.Int).Lsh(one, montBits)
	for name, m := range montTestModuli(t) {
		t.Run(name, func(t *testing.T) {
			mm := newMontModulus(m)
			if mm == nil {
				t.Fatalf("newMontModulus refused an odd %d-bit modulus", m.BitLen())
			}
			rInv := new(big.Int).ModInverse(new(big.Int).Mod(r, m), m)
			if got := mm.one.toBig(new(big.Int)); got.Cmp(new(big.Int).Mod(r, m)) != 0 {
				t.Fatalf("one = %x, want R mod m", got)
			}
			vals := []*big.Int{new(big.Int), big.NewInt(1), new(big.Int).Sub(m, one)}
			rng := mrand.New(mrand.NewSource(int64(m.Bits()[0])))
			for i := 0; i < 12; i++ {
				vals = append(vals, new(big.Int).Rand(rng, m))
			}
			for _, x := range vals {
				var xn, z nat
				xn.setBig(x)
				mm.redc(&z, &xn)
				if want := new(big.Int).Mul(x, rInv); z.toBig(new(big.Int)).Cmp(want.Mod(want, m)) != 0 {
					t.Fatalf("redc(%x) != x·R⁻¹ mod m", x)
				}
				for _, y := range vals {
					var yn, red nat
					yn.setBig(y)
					j := mm.mul(&z, &xn, &yn, &red)
					want := new(big.Int).Mul(x, y)
					want.Mul(want, rInv).Mod(want, m)
					got := z.toBig(new(big.Int))
					if got.Cmp(want) != 0 {
						t.Fatalf("montMul(%x, %x) = %x, want %x", x, y, got, want)
					}
					lhs := new(big.Int).Mul(red.toBig(new(big.Int)), m)
					lhs.Add(lhs, new(big.Int).Mul(x, y))
					rhs := new(big.Int).Mul(big.NewInt(int64(j)), m)
					rhs.Add(rhs, got).Lsh(rhs, montBits)
					if lhs.Cmp(rhs) != 0 || j > 1 {
						t.Fatalf("montMul(%x, %x): reduction words and j = %d do not satisfy x·y + M·m = (z + j·m)·R", x, y, j)
					}
					a := xn
					mm.mul(&a, &a, &yn, nil)
					if a != z {
						t.Fatalf("montMul(%x, %x) with z aliasing x differs", x, y)
					}
				}
			}
		})
	}
}

// TestMontExpMatchesBigInt checks the kernel's variable-base
// exponentiation against big.Int.Exp on the moduli of
// TestMontMulMatchesBigInt: bases 0, 1, m−1, a random residue, a
// ciphertext-sized value above m and non-units (multiples of p and q,
// which share a factor with n, p² and q²), to exponents 0, 1, p−1, q−1
// and a random 1024-bit value — the exponents Decrypt raises to.
func TestMontExpMatchesBigInt(t *testing.T) {
	if !montRunnable() {
		t.Skip("CPU lacks ADX/BMI2: the kernel cannot run here")
	}
	priv := testKey(t, 2048)
	rng := mrand.New(mrand.NewSource(5))
	exps := map[string]*big.Int{
		"0":      new(big.Int),
		"1":      big.NewInt(1),
		"p−1":    priv.pOrder,
		"q−1":    priv.qOrder,
		"random": new(big.Int).Rand(rng, new(big.Int).Lsh(one, 1024)),
	}
	for name, m := range montTestModuli(t) {
		t.Run(name, func(t *testing.T) {
			mm := newMontModulus(m)
			bases := map[string]*big.Int{
				"0":        new(big.Int),
				"1":        big.NewInt(1),
				"m−1":      new(big.Int).Sub(m, one),
				"random":   new(big.Int).Rand(rng, m),
				"above m":  new(big.Int).Rand(rng, priv.NSquared),
				"3p mod m": new(big.Int).Mod(new(big.Int).Mul(priv.p, big.NewInt(3)), m),
				"q":        priv.q,
			}
			for bn, base := range bases {
				for en, e := range exps {
					want := new(big.Int).Exp(base, e, m)
					if got := mm.exp(base, e); got.Cmp(want) != 0 {
						t.Errorf("exp(base %s, e %s) = %x, want %x", bn, en, got, want)
					}
				}
			}
		})
	}
}

// TestMontSelection pins where the kernel applies: odd 2048-bit moduli
// only, so a 2048-bit key's n (squarePow2) and its owner tables modulo p²
// and q² take it when montKernel is set, while every other key size and
// the big.Int switch keep the big.Int code.
func TestMontSelection(t *testing.T) {
	r := new(big.Int).Lsh(one, montBits)
	for _, m := range []*big.Int{
		new(big.Int).Sub(r, big.NewInt(2)),                       // even
		new(big.Int).Sub(new(big.Int).Lsh(one, montBits-1), one), // 2047 bits
		new(big.Int).Add(r, one),                                 // 2049 bits
	} {
		if newMontModulus(m) != nil {
			t.Errorf("newMontModulus accepted a %d-bit modulus with low bit %d", m.BitLen(), m.Bit(0))
		}
	}
	if montKernel != kernelAvailable() {
		t.Fatalf("montKernel = %v at start, kernelAvailable = %v", montKernel, kernelAvailable())
	}
	for _, bits := range []int{1024, 2048} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			forEachPath(t, true, func(t *testing.T) {
				priv := ownerKey(t, bits)
				wantMont := bits == montBits && montKernel
				if got := priv.owner.fp.mont != nil && priv.owner.fq.mont != nil; got != wantMont {
					t.Errorf("owner tables in Montgomery form = %v, want %v", got, wantMont)
				}
				if got := NewPublicKey(priv.N).mont != nil; got != (bits == montBits) {
					t.Errorf("NewPublicKey chain state present = %v at %d bits", got, bits)
				}
				ct, err := priv.Encrypt(rand.Reader, big.NewInt(41))
				if err != nil {
					t.Fatal(err)
				}
				if v, err := priv.Decrypt(ct); err != nil || v.Int64() != 41 {
					t.Fatalf("round trip = %v, %v", v, err)
				}
			})
		})
	}
}

// BenchmarkMontMul compares one 2048-bit modular product on the kernel
// with big.Int's Mul+QuoRem, the operation it replaces.
func BenchmarkMontMul(b *testing.B) {
	priv := testKey(b, 2048)
	m := priv.N
	x := new(big.Int).Sub(m, big.NewInt(3))
	y := new(big.Int).Rsh(m, 1)
	b.Run("kernel", func(b *testing.B) {
		if !montRunnable() {
			b.Skip("CPU lacks ADX/BMI2")
		}
		mm := newMontModulus(m)
		var xn, yn nat
		xn.setBig(x)
		yn.setBig(y)
		for i := 0; i < b.N; i++ {
			mm.mul(&xn, &xn, &yn, nil)
		}
	})
	b.Run("big", func(b *testing.B) {
		var prod, quo big.Int
		acc := new(big.Int).Set(x)
		for i := 0; i < b.N; i++ {
			prod.Mul(acc, y)
			quo.QuoRem(&prod, m, acc)
		}
	})
}
