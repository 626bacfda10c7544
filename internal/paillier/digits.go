package paillier

// Homomorphic addition in n-adic digit form for 2048-bit keys.
//
// An HAdd is c₁·c₂ mod n², one 64-word product and one 4096-by-4096-bit
// Knuth division on big.Int. A passive party pays one per (row, feature)
// of every node it builds, so at 2048 bits it keeps its accumulators as
// the n-adic digits of squarePow2's chain, c ≡ α + γ·n with α, γ < n, and
// reduces them on the 32-word Montgomery kernel (mont.go) instead. The
// other operand of an HAdd is held as the digits of R·c mod n², with
// R = 2^2048 — an Addend, converted once when the ciphertext arrives.
// With u = montMul(α₁, α₂), its reduction words M
// (α₁α₂ + M·n = (u + j·n)·R) and j its final subtraction,
//
//	(α₁ + γ₁n)(α₂ + γ₂n)·R⁻¹ ≡ u + ((α₁γ₂ − M)·R⁻¹ + α₂γ₁·R⁻¹ + j)·n  (mod n²),
//
// so α ← u and γ ← montgomery(α₁, γ₂, addend n − (M mod n)) +
// montMul(α₂, γ₁) + j mod n: three kernel products modulo n where
// big.Int multiplies and divides at twice the width. It is exact and
// takes no inverse, so non-units work as they do on big.Int.
//
// Converting a ciphertext into an addend is itself one such HAdd: its
// plain digits (one division by n) times the addend of R mod n², whose
// digits R² mod n² every 2048-bit key keeps (montChain.rr). Reading the
// canonical residue back is α + γ·n for an accumulator, and for an addend
// one HAdd into the accumulator of 1.
//
// Like squarePow2's chain, this form is selected by width and platform
// only: DigitForm reports it for 2048-bit keys when montKernel is set, and
// everything else keeps big.Int's AddInto, the reference the tests compare
// against.

import "math/big"

// Accumulator is a ciphertext c held as its n-adic digits, c ≡ α + γ·n
// (mod n²) with α, γ < n. PublicKey.AddAddend accumulates into it in
// place. Only keys that report DigitForm make one.
type Accumulator struct{ a, g nat }

// Addend is a ciphertext c held as the n-adic digits of R·c mod n²
// (R = 2^2048): the form the HAdd's right operand takes. It is read-only
// once made, so one addend may be added into many accumulators at once.
type Addend struct{ a, g nat }

// DigitForm reports whether this key accumulates in digit form: a 2048-bit
// n with the Montgomery kernel selected.
func (pk *PublicKey) DigitForm() bool { return montKernel && pk.mont != nil }

// NewAccumulator returns the digits of ct, which must lie in [0, n²).
func (pk *PublicKey) NewAccumulator(ct Ciphertext) *Accumulator {
	var q, r big.Int
	q.QuoRem(ct.C, pk.N, &r)
	acc := new(Accumulator)
	acc.a.setBig(&r)
	acc.g.setBig(&q)
	return acc
}

// ZeroAccumulator returns the accumulator of 1, the encryption of zero
// EncryptZero returns.
func (pk *PublicKey) ZeroAccumulator() *Accumulator {
	return &Accumulator{a: nat{1}}
}

// NewAddend returns the addend of ct, which must lie in [0, n²).
func (pk *PublicKey) NewAddend(ct Ciphertext) *Addend {
	acc := pk.NewAccumulator(ct)
	pk.mont.hadd(acc, &pk.mont.rr)
	return (*Addend)(acc)
}

// AddAddend accumulates b into acc in place: acc = acc·b mod n², the HAdd.
func (pk *PublicKey) AddAddend(acc *Accumulator, b *Addend) {
	pk.mont.hadd(acc, b)
}

// AddAccumulator accumulates the ciphertext b holds into acc in place,
// converting a copy of b into an addend on the way; b is unchanged and may
// be acc itself.
func (pk *PublicKey) AddAccumulator(acc, b *Accumulator) {
	t := *b
	pk.mont.hadd(&t, &pk.mont.rr)
	pk.mont.hadd(acc, (*Addend)(&t))
}

// ScaleAccumulator sets acc to the ciphertext of k·m in place, where acc
// holds the ciphertext of m, when k mod n is a power of two 2^s — every
// scalar on the training path — and reports whether it did: s squaring
// steps on its digits (the chain of MulScalar) and one HAdd by the cached
// addend of K_s = R^(2^s−1), with no conversion to big.Int and back. Any
// other k leaves acc as it was.
func (pk *PublicKey) ScaleAccumulator(acc *Accumulator, k *big.Int) bool {
	s, ok := pow2Exponent(pk.reduceScalar(k))
	if ok {
		pk.mont.scale(acc, s)
	}
	return ok
}

// AccumulatorCiphertext returns the canonical residue α + γ·n that acc
// holds.
func (pk *PublicKey) AccumulatorCiphertext(acc *Accumulator) Ciphertext {
	c := acc.g.toBig(new(big.Int))
	c.Mul(c, pk.N)
	var a big.Int
	return Ciphertext{C: c.Add(c, acc.a.toBig(&a))}
}

// AddendCiphertext returns the canonical residue of the ciphertext b
// holds.
func (pk *PublicKey) AddendCiphertext(b *Addend) Ciphertext {
	acc := pk.ZeroAccumulator()
	pk.mont.hadd(acc, b)
	return pk.AccumulatorCiphertext(acc)
}

// hadd sets acc to the digits of c₁·c₂ mod n², where acc holds the digits
// of c₁ and b those of R·c₂; see the file comment for the derivation.
func (ch *montChain) hadd(acc *Accumulator, b *Addend) {
	var u, m, g, g2 nat
	j := ch.mul(&u, &acc.a, &b.a, &m)
	var t [2 * montLimbs]uint
	ch.negAddend(&t, &m)
	ch.montgomery(&g, &t, &acc.a, &b.g, nil)
	ch.mul(&g2, &b.a, &acc.g, nil)
	// g + g2 + j ≤ 2n − 1, so one subtraction reduces it.
	if g.add(&g2, j) != 0 || !g.less(&ch.m) {
		g.sub(&ch.m)
	}
	acc.a, acc.g = u, g
}
