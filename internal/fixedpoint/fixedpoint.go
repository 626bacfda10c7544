// Package fixedpoint encodes floating-point values into the integer
// plaintext space of an additively homomorphic cryptosystem, following the
// convention of Section 2.2 of the VF²Boost paper:
//
//	V = round(v · B^e) + 1(v<0) · n
//
// where B is the encoding base (default 16) and e the exponent. The
// exponent is drawn from a small set of values ("non-deterministic in
// order to obfuscate the range of v"), which is exactly what makes the
// re-ordered histogram accumulation of Section 5.1 profitable: adding two
// ciphertexts with different exponents requires a scaling (SMul), while
// adding within one exponent class is a plain HAdd.
//
// The package also implements the polynomial cipher packing of Section
// 5.2: t non-negative M-bit values are packed into a single ciphertext,
// cutting decryption and transfer cost by t×.
package fixedpoint

import (
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"

	"vf2boost/internal/he"
)

// Defaults match the paper: B = 16 and a handful of distinct exponents
// ("ranging from 4 to 8" unique values in practice).
const (
	DefaultBase      = 16
	DefaultBaseExp   = 8
	DefaultExpSpread = 4
)

// Num is an encoded plaintext number.
type Num struct {
	// Exp is the encoding exponent e.
	Exp int
	// Man is the mantissa round(v·B^e) mod N, with negatives wrapped.
	Man *big.Int
}

// EncNum is an encrypted encoded number ⟨e, [[V]]⟩.
type EncNum struct {
	Exp int
	Ct  he.Ciphertext
}

// Codec encodes, encrypts and homomorphically combines floating-point
// values over a given scheme. It is safe for concurrent use.
type Codec struct {
	scheme    he.Scheme
	base      int
	baseExp   int
	expSpread int

	// seed keys the counter-based exponent draws (ExpAt); draws numbers
	// the positions RandExp consumes.
	seed  uint64
	draws atomic.Uint64

	powMu sync.RWMutex
	pows  map[int]*big.Int // B^k cache

	stats *Stats
}

// Option configures a Codec.
type Option func(*Codec)

// WithExponents sets the minimum exponent and the number of distinct
// exponent values used for obfuscation (spread >= 1; spread == 1 disables
// obfuscation and makes encoding deterministic).
func WithExponents(baseExp, spread int) Option {
	return func(c *Codec) { c.baseExp, c.expSpread = baseExp, spread }
}

// WithSeed keys the exponent-obfuscation draws for reproducible runs.
func WithSeed(seed int64) Option {
	return func(c *Codec) { c.seed = uint64(seed) }
}

// NewCodec builds a codec over scheme with the paper's defaults.
func NewCodec(scheme he.Scheme, opts ...Option) *Codec {
	c := &Codec{
		scheme:    scheme,
		base:      DefaultBase,
		baseExp:   DefaultBaseExp,
		expSpread: DefaultExpSpread,
		seed:      1,
		pows:      make(map[int]*big.Int),
		stats:     &Stats{},
	}
	for _, o := range opts {
		o(c)
	}
	if c.expSpread < 1 {
		panic("fixedpoint: exponent spread must be >= 1")
	}
	return c
}

// Scheme returns the underlying cryptosystem.
func (c *Codec) Scheme() he.Scheme { return c.scheme }

// Stats returns the codec's operation counters.
func (c *Codec) Stats() *Stats { return c.stats }

// Base returns the encoding base B.
func (c *Codec) Base() int { return c.base }

// BaseExp returns the minimum encoding exponent.
func (c *Codec) BaseExp() int { return c.baseExp }

// ExpSpread returns the number of distinct exponents in use (the paper's E).
func (c *Codec) ExpSpread() int { return c.expSpread }

// pow returns B^k as a big integer, caching results.
func (c *Codec) pow(k int) *big.Int {
	if k < 0 {
		panic("fixedpoint: negative power")
	}
	c.powMu.RLock()
	p, ok := c.pows[k]
	c.powMu.RUnlock()
	if ok {
		return p
	}
	p = new(big.Int).Exp(big.NewInt(int64(c.base)), big.NewInt(int64(k)), nil)
	c.powMu.Lock()
	c.pows[k] = p
	c.powMu.Unlock()
	return p
}

// splitmix64 is the SplitMix64 output function: a bijective 64-bit mix
// whose successive applications decorrelate structured inputs.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// ExpAt draws the obfuscated exponent of stream position (tree, class,
// inst) from [baseExp, baseExp+spread). It is a pure function of the
// codec seed and the position — no state advances — so concurrent
// encoders, replays and resumed sessions draw identical exponents
// whatever their goroutine interleaving or starting round.
func (c *Codec) ExpAt(tree, class, inst int) int {
	if c.expSpread == 1 {
		return c.baseExp
	}
	x := splitmix64(c.seed ^ uint64(tree))
	x = splitmix64(x ^ uint64(class))
	x = splitmix64(x ^ uint64(inst))
	// Multiply-shift maps the top 32 bits onto [0, spread) without the
	// low-bit bias of a modulo.
	return c.baseExp + int((x>>32)*uint64(c.expSpread)>>32)
}

// RandExp draws the next obfuscated exponent of the codec's own
// sequence: position n of a stream disjoint from every ExpAt(tree ≥ 0, …).
func (c *Codec) RandExp() int {
	return c.ExpAt(-1, 0, int(c.draws.Add(1)))
}

// roundedMagnitude is round(v·base^exp), half away from zero, as a signed
// integer. It needs no scheme, so constants such as the folded pair's
// field limits are derived with the rounding EncodeAt applies. Scaled
// values beyond the int64 fast path multiply the 53-bit mantissa by the
// exact integer power.
func roundedMagnitude(v float64, base, exp int) *big.Int {
	if scaled := v * math.Pow(float64(base), float64(exp)); math.Abs(scaled) < math.MaxInt64/2 {
		return big.NewInt(int64(math.Round(scaled)))
	}
	pow := new(big.Int).Exp(big.NewInt(int64(base)), big.NewInt(int64(exp)), nil)
	bf := new(big.Float).SetPrec(128).SetFloat64(v)
	bf.Mul(bf, new(big.Float).SetPrec(128).SetInt(pow))
	if bf.Signbit() {
		bf.Sub(bf, big.NewFloat(0.5))
	} else {
		bf.Add(bf, big.NewFloat(0.5))
	}
	m, _ := bf.Int(nil)
	return m
}

// EncodeAt encodes v with a fixed exponent (rounding half away from
// zero; values beyond the int64 fast path are scaled exactly).
func (c *Codec) EncodeAt(v float64, exp int) (Num, error) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return Num{}, fmt.Errorf("fixedpoint: cannot encode %v", v)
	}
	man := roundedMagnitude(v, c.base, exp)
	if man.CmpAbs(c.scheme.N()) >= 0 {
		return Num{}, fmt.Errorf("fixedpoint: %g at exponent %d exceeds the plaintext space", v, exp)
	}
	if man.Sign() < 0 {
		man.Add(man, c.scheme.N())
	}
	return Num{Exp: exp, Man: man}, nil
}

// Encode encodes v with an obfuscated exponent.
func (c *Codec) Encode(v float64) (Num, error) {
	return c.EncodeAt(v, c.RandExp())
}

// Decode recovers the floating-point value of an encoded number.
func (c *Codec) Decode(n Num) float64 {
	signed := he.Signed(c.scheme, n.Man)
	f, _ := new(big.Float).SetInt(signed).Float64()
	return f / math.Pow(float64(c.base), float64(n.Exp))
}

// DecodeShifted decodes a mantissa that is known to be non-negative (for
// example after the histogram-packing shift), without the signed mapping.
func (c *Codec) DecodeShifted(man *big.Int, exp int) float64 {
	f, _ := new(big.Float).SetInt(man).Float64()
	return f / math.Pow(float64(c.base), float64(exp))
}

// DecodeSigned converts an already-signed mantissa (no modular wrapping)
// at the given base and exponent to a float.
func DecodeSigned(man *big.Int, base, exp int) float64 {
	f, _ := new(big.Float).SetInt(man).Float64()
	return f / math.Pow(float64(base), float64(exp))
}

// Encrypt encrypts an encoded number.
func (c *Codec) Encrypt(n Num) (EncNum, error) {
	ct, err := c.scheme.Encrypt(n.Man)
	if err != nil {
		return EncNum{}, err
	}
	c.stats.addEnc(1)
	return EncNum{Exp: n.Exp, Ct: ct}, nil
}

// EncryptValue encodes and encrypts v in one step.
func (c *Codec) EncryptValue(v float64) (EncNum, error) {
	n, err := c.Encode(v)
	if err != nil {
		return EncNum{}, err
	}
	return c.Encrypt(n)
}

// EncryptZero returns an encrypted zero at the lowest exponent, suitable
// as an accumulator seed.
func (c *Codec) EncryptZero() EncNum {
	return EncNum{Exp: c.baseExp, Ct: c.scheme.EncryptZero()}
}

// Decrypt recovers the floating-point value of an encrypted number.
func (c *Codec) Decrypt(dec he.Decryptor, e EncNum) (float64, error) {
	m, err := dec.Decrypt(e.Ct)
	if err != nil {
		return 0, err
	}
	c.stats.addDec(1)
	return c.Decode(Num{Exp: e.Exp, Man: m}), nil
}

// ScaleEnc homomorphically rescales an encrypted number to a higher
// exponent; this is the cipher scaling operation whose cost the
// re-ordered accumulation avoids.
func (c *Codec) ScaleEnc(e EncNum, toExp int) EncNum {
	if toExp < e.Exp {
		panic("fixedpoint: cannot scale ciphertext to a lower exponent")
	}
	if toExp == e.Exp {
		return e
	}
	c.stats.addScale(1)
	c.stats.addSMul(1)
	return EncNum{Exp: toExp, Ct: c.scheme.MulScalar(e.Ct, c.pow(toExp-e.Exp))}
}

// AddEnc returns the homomorphic sum of two encrypted numbers, scaling to
// the larger exponent as needed (the naïve accumulation path).
func (c *Codec) AddEnc(a, b EncNum) EncNum {
	if a.Exp < b.Exp {
		a = c.ScaleEnc(a, b.Exp)
	} else if b.Exp < a.Exp {
		b = c.ScaleEnc(b, a.Exp)
	}
	c.stats.addHAdd(1)
	return EncNum{Exp: a.Exp, Ct: c.scheme.Add(a.Ct, b.Ct)}
}

// AddEncInto accumulates b into *dst, scaling whichever side has the
// smaller exponent. The accumulator must be exclusively owned by the
// caller (e.g. seeded from EncryptZero).
func (c *Codec) AddEncInto(dst *EncNum, b EncNum) {
	c.stats.addHAdd(1)
	c.addInto(dst, b)
}

// addInto is AddEncInto without counting the HAdd.
func (c *Codec) addInto(dst *EncNum, b EncNum) {
	switch {
	case dst.Exp == b.Exp:
	case dst.Exp < b.Exp:
		*dst = c.ScaleEnc(*dst, b.Exp)
	default:
		b = c.ScaleEnc(b, dst.Exp)
	}
	dst.Ct = c.scheme.AddInto(dst.Ct, b.Ct)
}
