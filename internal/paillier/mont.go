package paillier

// Montgomery arithmetic for 2048-bit moduli.
//
// big.Int reduces every modular product with a Knuth division (QuoRem),
// which is half the CPU of the two operations that dominate training at
// the paper's key size: the packing shifts of squarePow2 (modulo n) and
// the key owner's fixed-base obfuscator (modulo p² and q²). Decryption's
// c^(p−1) mod p² and c^(q−1) mod q² are the third: big.Int.Exp runs its
// own Montgomery loop, but over the generic word routines. All three
// moduli are odd and exactly 2048 bits (32 words on amd64), so a
// word-by-word Montgomery multiplication over one unrolled 32-word
// multiply-accumulate kernel (addMulVVW2048, the ADX body of Go's bigmod
// kernel) replaces the division: montMul(x, y) = x·y·R⁻¹ mod m with
// R = 2^2048: 1.6 µs per product against 2.8 µs for Mul+QuoRem on a 2-CPU
// Emerald Rapids Xeon (BenchmarkMontMul, medians of 5 runs).
//
// Selection is by platform and width only. montKernel is true on amd64
// (without the purego tag) when CPUID reports ADX and BMI2, and then only
// 2048-bit moduli take this code: squarePow2, the owner's tables,
// decryption's two exponentiations (exp) and the digit-form HAdd
// (digits.go). Everything else — other widths, other platforms and AddInto
// on canonical ciphertexts — stays on big.Int, which is also the
// reference the tests compare against. A word loop written in Go is
// slower than big.Int, so mont_generic.go's addMulVVW2048 only lets the
// tests run the Montgomery arithmetic where the kernel is compiled out.
//
// Like the big.Int code it replaces, none of this is constant time: the
// operands are ciphertexts, and the window lookups of the fixed-base
// tables already depend on the exponent.

import (
	"math/big"
	"math/bits"
	"sync"
)

// montBits is the one modulus width the kernel serves.
const montBits = 2048

// montLimbs is montBits in machine words: 32 on amd64.
const montLimbs = montBits / bits.UintSize

// montKernel selects the Montgomery code for 2048-bit moduli. It is true
// only where the kernel is compiled in and the CPU supports it; tests
// clear it to force the big.Int path on such a host.
var montKernel = kernelAvailable()

// nat is a residue modulo a 2048-bit modulus in little-endian words.
type nat [montLimbs]uint

// setBig sets z to x, which must satisfy 0 ≤ x < 2^2048.
func (z *nat) setBig(x *big.Int) {
	*z = nat{}
	for i, w := range x.Bits() {
		z[i] = uint(w)
	}
}

// toBig sets dst to z, reusing dst's storage, and returns dst.
func (z *nat) toBig(dst *big.Int) *big.Int {
	w := dst.Bits()
	if cap(w) < montLimbs {
		w = make([]big.Word, montLimbs)
	}
	w = w[:montLimbs]
	for i, v := range z {
		w[i] = big.Word(v)
	}
	return dst.SetBits(w)
}

// less reports whether z < y.
func (z *nat) less(y *nat) bool {
	for i := montLimbs - 1; i >= 0; i-- {
		if z[i] != y[i] {
			return z[i] < y[i]
		}
	}
	return false
}

// add sets z = z + y + c mod 2^2048 for a carry-in c ≤ 1 and returns the
// carry out.
func (z *nat) add(y *nat, c uint) uint {
	for i := range z {
		z[i], c = bits.Add(z[i], y[i], c)
	}
	return c
}

// sub sets z = z − y mod 2^2048.
func (z *nat) sub(y *nat) {
	var b uint
	for i := range z {
		z[i], b = bits.Sub(z[i], y[i], b)
	}
}

// montModulus is an odd 2048-bit modulus m with its Montgomery constants.
type montModulus struct {
	m     nat
	m0inv uint // −m⁻¹ mod 2^W
	one   nat  // R mod m, the Montgomery form of 1
	mod   *big.Int
}

// newMontModulus returns the Montgomery context of m, or nil when m is not
// an odd 2048-bit modulus. It does not consult montKernel: callers check
// the switch where they choose between this and the big.Int path.
func newMontModulus(m *big.Int) *montModulus {
	if m.BitLen() != montBits || m.Bit(0) == 0 {
		return nil
	}
	mm := &montModulus{mod: m}
	mm.m.setBig(m)
	// Newton's iteration doubles the correct low bits of y = m⁻¹ mod 2^W
	// from the 3 that y = m₀ already has.
	y := mm.m[0]
	for i := 0; i < 5; i++ {
		y *= 2 - mm.m[0]*y
	}
	mm.m0inv = -y
	mm.toMont(&mm.one, one)
	return mm
}

// toMont sets z = x·R mod m for any x ≥ 0.
func (mm *montModulus) toMont(z *nat, x *big.Int) {
	r := new(big.Int).Lsh(x, montBits)
	z.setBig(r.Mod(r, mm.mod))
}

// montgomery runs the word-by-word Montgomery loop (Gueron, "Efficient
// Software Implementations of Modular Exponentiation", Alg. 4) on t, whose
// low half holds an addend a and whose high half is zero: it sets
// z = (a + x·y)·R⁻¹ mod m, or z = a·R⁻¹ mod m when x is nil. The inputs
// must keep a + x·y < m·R, which a, x, y < m guarantee. It returns 1 if
// the final subtraction of m ran, else 0; when red is non-nil it receives
// the reduction words M of a + x·y + M·m = (z + j·m)·R. z may alias x or
// y: they are read only before z is written.
func (mm *montModulus) montgomery(z *nat, t *[2 * montLimbs]uint, x, y, red *nat) uint {
	var c uint
	for i := 0; i < montLimbs; i++ {
		var c1 uint
		if x != nil {
			c1 = addMulVVW2048(&t[i], &x[0], y[i])
		}
		q := t[i] * mm.m0inv
		if red != nil {
			red[i] = q
		}
		c2 := addMulVVW2048(&t[i], &mm.m[0], q)
		t[montLimbs+i], c = bits.Add(c1, c2, c)
	}
	copy(z[:], t[montLimbs:])
	// The sum is below 2m·R, so z + c·R < 2m and one subtraction reduces
	// it; the subtraction's borrow cancels the carry word c.
	if c == 0 && z.less(&mm.m) {
		return 0
	}
	z.sub(&mm.m)
	return 1
}

// negAddend loads montgomery's t with the addend m − (M mod m) ≡ −M for
// reduction words M of a previous product; it clobbers M.
func (mm *montModulus) negAddend(t *[2 * montLimbs]uint, red *nat) {
	// M < R ≤ 2m, so M mod m takes at most one subtraction.
	if !red.less(&mm.m) {
		red.sub(&mm.m)
	}
	*t = [2 * montLimbs]uint{}
	copy(t[:], mm.m[:])
	(*nat)(t[:montLimbs]).sub(red)
}

// mul sets z = x·y·R⁻¹ mod m for x, y < m; see montgomery for red and the
// result.
func (mm *montModulus) mul(z, x, y, red *nat) uint {
	var t [2 * montLimbs]uint
	return mm.montgomery(z, &t, x, y, red)
}

// redc sets z = x·R⁻¹ mod m, taking a Montgomery-form x out of that form.
func (mm *montModulus) redc(z, x *nat) {
	var t [2 * montLimbs]uint
	copy(t[:], x[:])
	mm.montgomery(z, &t, nil, nil, nil)
}

// expWindow is exp's window width: 2^5 − 2 table products, then five
// squarings and at most one table product for each of a 1024-bit
// exponent's 205 windows. A 2048-bit Decrypt on exp took 0.75–0.78 of
// big.Int.Exp's time (window 4 over big.Int's generic word loops; median
// ratios of paired runs on a 2-CPU Xeon, family 6 model 207).
const expWindow = 5

// exp returns base^e mod m for any base, e ≥ 0 by a fixed-window ladder
// in Montgomery form: the base is converted once, the table holds its
// powers 1 … 2^expWindow − 1, and every window costs expWindow squarings
// and at most one table product. No inverse is taken, so a base that
// shares a factor with m works as it does in big.Int.Exp.
func (mm *montModulus) exp(base, e *big.Int) *big.Int {
	var table [1 << expWindow]nat
	table[0] = mm.one
	mm.toMont(&table[1], base)
	for i := 2; i < len(table); i++ {
		mm.mul(&table[i], &table[i-1], &table[1], nil)
	}
	words, n := e.Bits(), e.BitLen()
	acc := mm.one
	for i := (n+expWindow-1)/expWindow - 1; i >= 0; i-- {
		for k := 0; k < expWindow; k++ {
			mm.mul(&acc, &acc, &acc, nil)
		}
		if v := windowAt(words, uint(i*expWindow), expWindow); v != 0 {
			mm.mul(&acc, &acc, &table[v], nil)
		}
	}
	mm.redc(&acc, &acc)
	return acc.toBig(new(big.Int))
}

// montChain is squarePow2's state for a 2048-bit n: the Montgomery
// modulus n, n², and the recombination constants K_s = R^(2^s−1) mod n²,
// computed once per chain length s (the protocol uses a handful: the
// packing shift and the 16^d exponent scalings).
type montChain struct {
	montModulus
	n2       *big.Int
	k        sync.Map // int → *big.Int
	kAddends sync.Map // int → the *Addend of K_s
	// rr is the addend of R mod n², whose digits are those of R² mod n²:
	// an HAdd by it turns a ciphertext's digits into its addend (digits.go).
	rr Addend
}

// newMontChain returns the chain state for n, or nil when n is not an odd
// 2048-bit modulus.
func newMontChain(n, n2 *big.Int) *montChain {
	mm := newMontModulus(n)
	if mm == nil {
		return nil
	}
	ch := &montChain{montModulus: *mm, n2: n2}
	rr := new(big.Int).Lsh(one, 2*montBits)
	var q big.Int
	q.QuoRem(rr.Mod(rr, n2), n, rr)
	ch.rr.a.setBig(rr)
	ch.rr.g.setBig(&q)
	return ch
}

// kFor returns K_s = R^(2^s−1) mod n².
func (ch *montChain) kFor(s int) *big.Int {
	if k, ok := ch.k.Load(s); ok {
		return k.(*big.Int)
	}
	e := new(big.Int).Lsh(one, uint(s))
	r := new(big.Int).Lsh(one, montBits)
	k := r.Exp(r, e.Sub(e, one), ch.n2)
	got, _ := ch.k.LoadOrStore(s, k)
	return got.(*big.Int)
}

// squarePow2 is PublicKey.squarePow2 on the kernel: the n-adic digits of
// c, squareSteps, and one multiplication by K_s = R^(2^s−1) mod n² that
// recombines the canonical residue Exp returns.
func (ch *montChain) squarePow2(c *big.Int, s int) *big.Int {
	var q, r big.Int
	q.QuoRem(c, ch.mod, &r)
	var a, g nat
	a.setBig(&r)
	g.setBig(&q)
	ch.squareSteps(&a, &g, s)
	out := g.toBig(new(big.Int))
	out.Mul(out, ch.mod)
	out.Add(out, a.toBig(&r))
	prod := new(big.Int).Mul(out, ch.kFor(s))
	q.QuoRem(prod, ch.n2, out)
	return out
}

// squareSteps squares c ≡ R^e·(α + γ·n) (mod n²), held as its digits
// α, γ < n, s times in place, starting from e = 0. Squaring, with
// u = montMul(α, α), its reduction words M (α² + M·n = (u + j·n)·R) and j
// its final subtraction,
//
//	(α + γ·n)² ≡ α² + 2αγ·n ≡ R·(u + ((2αγ − M)·R⁻¹ + j)·n)  (mod n²),
//
// so α ← u, γ ← (2αγ − M)·R⁻¹ + j mod n and e ← 2e + 1: after s steps
// e = 2^s − 1, and the digits times K_s = R^(2^s−1) are c^(2^s). The γ
// step is one Montgomery product of α and 2γ mod n over the addend
// n − (M mod n) ≡ −M. No inverse is taken, so non-units work as they do
// on the big.Int chain.
func (ch *montChain) squareSteps(a, g *nat, s int) {
	var u, g2, m nat
	var t [2 * montLimbs]uint
	for i := 0; i < s; i++ {
		j := ch.mul(&u, a, a, &m)
		// g2 = 2γ mod n.
		var carry uint
		for w := range g2 {
			g2[w], carry = g[w]<<1|carry, g[w]>>(bits.UintSize-1)
		}
		if carry != 0 || !g2.less(&ch.m) {
			g2.sub(&ch.m)
		}
		ch.negAddend(&t, &m)
		ch.montgomery(g, &t, a, &g2, nil)
		// γ + j ≤ n, so one subtraction again suffices.
		if j != 0 {
			for w := range g {
				if g[w]++; g[w] != 0 {
					break
				}
			}
			if !g.less(&ch.m) {
				g.sub(&ch.m)
			}
		}
		*a = u
	}
}

// scale sets acc to acc^(2^s) in place: squareSteps on its digits, then
// one HAdd by the addend of K_s, cached per s.
func (ch *montChain) scale(acc *Accumulator, s int) {
	if s == 0 {
		return
	}
	ch.squareSteps(&acc.a, &acc.g, s)
	b, ok := ch.kAddends.Load(s)
	if !ok {
		k := ch.kFor(s)
		var q, r big.Int
		q.QuoRem(k, ch.mod, &r)
		add := new(Addend)
		add.a.setBig(&r)
		add.g.setBig(&q)
		ch.hadd((*Accumulator)(add), &ch.rr)
		b, _ = ch.kAddends.LoadOrStore(s, add)
	}
	ch.hadd(acc, b.(*Addend))
}

// newMontFixedBase is newFixedBase modulo a 2048-bit mm, with every entry
// built and kept in Montgomery form: the base is converted once and each
// further entry is one montMul of two converted values.
func newMontFixedBase(base *big.Int, mm *montModulus, maxBits int, w uint) *fixedBase {
	if maxBits < 1 {
		maxBits = 1
	}
	fb := &fixedBase{
		mod:        mm.mod,
		window:     w,
		mont:       mm,
		montTables: make([][]nat, (maxBits+int(w)-1)/int(w)),
	}
	var cur nat
	mm.toMont(&cur, base)
	for i := range fb.montTables {
		row := make([]nat, (1<<w)-1)
		row[0] = cur
		for j := 1; j < len(row); j++ {
			mm.mul(&row[j], &row[j-1], &cur, nil)
		}
		fb.montTables[i] = row
		if i+1 < len(fb.montTables) {
			mm.mul(&cur, &row[len(row)-1], &cur, nil)
		}
	}
	return fb
}

// montExpInto is fixedBase.expInto on Montgomery tables: the accumulator
// starts at R mod m, takes one montMul per non-zero window, and one REDC
// leaves Montgomery form.
func (fb *fixedBase) montExpInto(acc, x *big.Int) {
	mm := fb.mont
	a := mm.one
	words, n := x.Bits(), uint(x.BitLen())
	for i := uint(0); i*fb.window < n; i++ {
		if v := windowAt(words, i*fb.window, fb.window); v != 0 {
			mm.mul(&a, &a, &fb.montTables[i][v-1], nil)
		}
	}
	mm.redc(&a, &a)
	a.toBig(acc)
}
