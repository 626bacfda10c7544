package fixedpoint

import (
	"fmt"
	"math"
	"math/big"

	"vf2boost/internal/he"
)

// Lane-aware encoding for slot-batched backends (the BatchCrypt-style
// gradient-pair packing). One vector ciphertext carries k ⟨g,h⟩ pairs in
// 2k lanes; each lane holds the signed fixed-point mantissa shifted by a
// per-lane offset so it is non-negative:
//
//	lane = round(v·B^e) + OffsetMan,   OffsetMan = round(bound·B^e)
//
// with |v| ≤ bound, so lane ∈ [0, 2·OffsetMan]. Accumulating c such lanes
// yields Σ mantissas + c·OffsetMan, which the decryptor reverses exactly
// in the integer domain knowing c. The lane is laneBits wide where
// laneBits − headroom bits hold one shifted value, so up to 2^headroom
// lanes sum without carrying into a neighbour. Unlike the scalar path,
// lane encoding always uses the fixed exponent e = BaseExp: exponent
// obfuscation is meaningless when every lane must share one scale.

// LanePlan is the negotiated lane geometry for a batched backend: how
// many ⟨g,h⟩ pairs fit one ciphertext and how wide each lane is.
type LanePlan struct {
	// Pairs is k, the ⟨g,h⟩ pairs per ciphertext; the backend needs
	// Slots = 2·Pairs lanes.
	Pairs int
	// LaneBits is the lane width in bits.
	LaneBits int
	// Headroom is the high-bit reserve per lane: at most 2^Headroom lane
	// values may be accumulated before a carry could cross lanes.
	Headroom int
	// Exp is the fixed encoding exponent (no obfuscation in lane mode).
	Exp int
	// Base is the encoding base B.
	Base int
	// Bound is the gradient magnitude bound the offset was derived from.
	Bound float64
	// OffsetMan is round(Bound·B^Exp), the per-lane shift.
	OffsetMan *big.Int
}

// Slots returns the lane count a backend must provide for this plan.
func (p LanePlan) Slots() int { return 2 * p.Pairs }

// PlanLanes derives the lane geometry for a scheme of the given modulus
// width: lanes wide enough for one offset-shifted value of magnitude ≤
// bound at exponent exp, plus headroom bits of accumulation reserve, and
// as many ⟨g,h⟩ pairs as fit below the modulus. It fails when not even
// one pair fits (the caller should fall back to a scalar backend).
func PlanLanes(schemeBits, base, exp int, bound float64, headroom int) (LanePlan, error) {
	if base < 2 || exp < 0 || headroom < 0 {
		return LanePlan{}, fmt.Errorf("fixedpoint: invalid lane parameters base=%d exp=%d headroom=%d", base, exp, headroom)
	}
	if math.IsNaN(bound) || math.IsInf(bound, 0) || bound <= 0 {
		return LanePlan{}, fmt.Errorf("fixedpoint: lane plan needs a positive gradient bound, got %v", bound)
	}
	off := roundedMagnitude(bound, base, exp)
	if off.Sign() <= 0 {
		return LanePlan{}, fmt.Errorf("fixedpoint: bound %v vanishes at base %d exponent %d", bound, base, exp)
	}
	// A shifted value spans [0, 2·off]: off.BitLen()+1 bits.
	laneBits := off.BitLen() + 1 + headroom
	pairs := (schemeBits - 1) / (2 * laneBits)
	if pairs < 1 {
		return LanePlan{}, fmt.Errorf("fixedpoint: no ⟨g,h⟩ pair fits %d-bit plaintexts at %d-bit lanes", schemeBits, laneBits)
	}
	return LanePlan{
		Pairs:     pairs,
		LaneBits:  laneBits,
		Headroom:  headroom,
		Exp:       exp,
		Base:      base,
		Bound:     bound,
		OffsetMan: off,
	}, nil
}

// EncodeLanePair encodes one ⟨g,h⟩ pair as two offset-shifted lane
// values. Values outside ±Bound fail rather than silently corrupting
// neighbour lanes after accumulation.
func (c *Codec) EncodeLanePair(g, h float64, plan LanePlan) (gl, hl *big.Int, err error) {
	if gl, err = c.encodeLane(g, plan); err != nil {
		return nil, nil, err
	}
	if hl, err = c.encodeLane(h, plan); err != nil {
		return nil, nil, err
	}
	return gl, hl, nil
}

func (c *Codec) encodeLane(v float64, plan LanePlan) (*big.Int, error) {
	n, err := c.EncodeAt(v, plan.Exp)
	if err != nil {
		return nil, err
	}
	lane := new(big.Int).Add(he.Signed(c.scheme, n.Man), plan.OffsetMan)
	// The shifted value must stay in [0, 2·OffsetMan]; anything outside
	// means |v| > Bound and would eat into the accumulation headroom.
	if lane.Sign() < 0 || lane.Cmp(new(big.Int).Lsh(plan.OffsetMan, 1)) > 0 {
		return nil, fmt.Errorf("fixedpoint: value %g exceeds the lane bound ±%g", v, plan.Bound)
	}
	return lane, nil
}

// EncryptLanes encrypts pre-encoded lane values through the codec's
// backend, counting one encryption. The codec must be built over a
// slot-aware backend.
func (c *Codec) EncryptLanes(lanes []*big.Int) (he.VecCiphertext, error) {
	b, ok := c.scheme.(he.Backend)
	if !ok {
		return nil, fmt.Errorf("fixedpoint: scheme %s is not a slot-aware backend", c.scheme.Name())
	}
	v, err := b.EncryptVec(lanes)
	if err != nil {
		return nil, err
	}
	c.stats.addEnc(1)
	return v, nil
}

// LaneSumSigned reverses the offset shift on an accumulated lane: given
// the lane value of an accumulator that c encryptions were added into, it
// returns the exact signed integer sum of the mantissas.
func (p LanePlan) LaneSumSigned(laneSum *big.Int, count int64) *big.Int {
	off := new(big.Int).Mul(big.NewInt(count), p.OffsetMan)
	return new(big.Int).Sub(laneSum, off)
}

// DecodeLaneSum converts an accumulated lane value straight to the
// floating-point sum it represents.
func (p LanePlan) DecodeLaneSum(laneSum *big.Int, count int64) float64 {
	return DecodeSigned(p.LaneSumSigned(laneSum, count), p.Base, p.Exp)
}
