package fixedpoint

import (
	"errors"
	"fmt"
	"math"
	"math/big"

	"vf2boost/internal/he"
)

// ErrPairRange marks a ⟨g,h⟩ pair the folded layout cannot carry: a
// non-finite value, a negative hessian, or a field that would outgrow its
// share of the plaintext. Sessions abort on it rather than let one field
// bleed into the other.
var ErrPairRange = errors.New("fixedpoint: gradient pair outside the folded plaintext range")

// PairPlan is a session's folded ⟨g,h⟩ plaintext layout: one ciphertext
// per instance carries
//
//	P = round(g·B^e)·2^W + round(h·B^e)
//
// with a single exponent e, g signed in the high field and h ≥ 0 in the
// W-bit low field. HAdd, exponent scaling (· B^k) and parent − child
// subtraction all act on the whole plaintext, so the fields stay aligned;
// and since every h is non-negative, the low field of any sum over a set
// of instances is non-negative too and never borrows from the high one.
// A decrypted sum therefore splits on its signed representative as
// H = P mod 2^W, G = (P − H) >> W, with no offset and no per-bin count.
type PairPlan struct {
	codec *Codec
	// W is the low-field width in bits.
	W int
	// limit bounds one instance's field magnitude, scaled to the top
	// exponent: rows·limit < 2^(W−1), so neither field of any instance
	// subset's sum reaches 2^(W−1).
	limit *big.Int
}

// PlanPairs derives W for a session of the given row count and gradient
// bound (|g|, h ≤ bound): two bits above rows·bound·B^top, where top is
// the codec's highest exponent. It fails when the two fields do not fit
// the plaintext space.
func (c *Codec) PlanPairs(rows int, bound float64) (PairPlan, error) {
	if rows < 1 || math.IsNaN(bound) || math.IsInf(bound, 0) || bound <= 0 {
		return PairPlan{}, fmt.Errorf("fixedpoint: pair plan needs rows >= 1 and a positive gradient bound, got %d rows, bound %v", rows, bound)
	}
	top := c.baseExp + c.expSpread - 1
	w := int(math.Ceil(math.Log2(float64(rows)*bound)+float64(top)*math.Log2(DefaultBase))) + 2
	if w < 2 {
		w = 2
	}
	if 2*w > c.scheme.Bits()-2 {
		return PairPlan{}, fmt.Errorf("fixedpoint: folded pairs need %d plaintext bits but the modulus has %d", 2*w, c.scheme.Bits())
	}
	limit := new(big.Int).Lsh(big.NewInt(1), uint(w-1))
	limit.Div(limit, big.NewInt(int64(rows)))
	limit.Sub(limit, big.NewInt(1))
	return PairPlan{codec: c, W: w, limit: limit}, nil
}

// Encode folds one instance's pair at the given exponent.
func (p PairPlan) Encode(g, h float64, exp int) (Num, error) {
	c := p.codec
	if math.IsNaN(g) || math.IsInf(g, 0) || math.IsNaN(h) || math.IsInf(h, 0) || h < 0 {
		return Num{}, fmt.Errorf("%w: g=%v h=%v", ErrPairRange, g, h)
	}
	top := c.baseExp + c.expSpread - 1
	if exp < c.baseExp || exp > top {
		return Num{}, fmt.Errorf("fixedpoint: pair exponent %d outside [%d,%d]", exp, c.baseExp, top)
	}
	gm := roundedMagnitude(g, exp)
	hm := roundedMagnitude(h, exp)
	scale := c.pow(top - exp)
	for _, m := range []*big.Int{gm, hm} {
		if new(big.Int).Mul(m, scale).CmpAbs(p.limit) > 0 {
			return Num{}, fmt.Errorf("%w: g=%v h=%v at exponent %d overflow the %d-bit fields", ErrPairRange, g, h, exp, p.W)
		}
	}
	man := gm.Lsh(gm, uint(p.W))
	man.Add(man, hm)
	if man.Sign() < 0 {
		man.Add(man, c.scheme.N())
	}
	return Num{Exp: exp, Man: man}, nil
}

// Encrypt folds and encrypts one instance's pair.
func (p PairPlan) Encrypt(g, h float64, exp int) (EncNum, error) {
	n, err := p.Encode(g, h, exp)
	if err != nil {
		return EncNum{}, err
	}
	return p.codec.Encrypt(n)
}

// Split separates a signed folded sum into its fields.
func (p PairPlan) Split(sum *big.Int) (g, h *big.Int) {
	mask := new(big.Int).Lsh(big.NewInt(1), uint(p.W))
	mask.Sub(mask, big.NewInt(1))
	// And and Rsh treat negative values as two's complement, which is
	// exactly the Euclidean mod / floor shift the layout calls for.
	h = new(big.Int).And(sum, mask)
	g = new(big.Int).Rsh(sum, uint(p.W))
	return g, h
}

// Decode splits a signed folded sum at the given exponent into floats.
func (p PairPlan) Decode(sum *big.Int, exp int) (g, h float64) {
	gm, hm := p.Split(sum)
	return DecodeSigned(gm, DefaultBase, exp), DecodeSigned(hm, DefaultBase, exp)
}

// Decrypt recovers the ⟨Σg, Σh⟩ of an encrypted folded sum.
func (p PairPlan) Decrypt(dec he.Decryptor, e EncNum) (g, h float64, err error) {
	m, err := dec.Decrypt(e.Ct)
	if err != nil {
		return 0, 0, err
	}
	p.codec.stats.addDec(1)
	g, h = p.Decode(he.Signed(p.codec.scheme, m), e.Exp)
	return g, h, nil
}
