package core

import (
	"fmt"
	"math/big"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// EncHistogram accumulates the folded ⟨g,h⟩ ciphertexts of one tree node
// into per-feature bins (one cell per bin: every homomorphic operation
// acts on the whole plaintext, so both fields ride along). Two
// accumulation strategies implement Section 5.1's comparison:
//
//   - naive: one accumulator per bin; a ciphertext whose exponent differs
//     from the accumulator's triggers a scaling (SMul) on every addition;
//   - re-ordered: one workspace row per exponent value, so every addition
//     is a plain HAdd; finalizeRange merges the E rows with at most E-1
//     scalings per occupied bin.
type EncHistogram struct {
	codec   *fixedpoint.Codec
	offsets []int
	// acc are the naive accumulators (nil Ct = empty bin).
	acc []fixedpoint.EncNum
	// slots are the re-ordered workspaces, indexed [exp-baseExp][bin];
	// rows allocated lazily.
	slots     [][]he.Ciphertext
	reordered bool
}

// NewEncHistogram allocates an empty histogram shaped like the party's bin
// mapper.
func NewEncHistogram(codec *fixedpoint.Codec, mapper *gbdt.BinMapper, reordered bool) *EncHistogram {
	offsets := make([]int, len(mapper.Cuts)+1)
	for j := range mapper.Cuts {
		offsets[j+1] = offsets[j] + mapper.NumBins(j)
	}
	eh := &EncHistogram{codec: codec, offsets: offsets, reordered: reordered}
	if reordered {
		eh.slots = make([][]he.Ciphertext, codec.ExpSpread())
	} else {
		eh.acc = make([]fixedpoint.EncNum, eh.totalBins())
	}
	return eh
}

func (eh *EncHistogram) totalBins() int { return eh.offsets[len(eh.offsets)-1] }

// Accumulate sweeps the given instances of the binned matrix into the
// histogram; gh holds one folded ciphertext per instance. It is not safe
// for concurrent use; parallel builders use one histogram per shard and
// merge. A view failure (disk-backed views only) stops the sweep; the
// partial histogram must be discarded and the error routed into the
// session-abort path.
func (eh *EncHistogram) Accumulate(bm gbdt.BinView, insts []int32, gh []fixedpoint.EncNum) error {
	for _, i := range insts {
		cols, bins, err := bm.Row(int(i))
		if err != nil {
			return err
		}
		for k, j := range cols {
			eh.add(eh.offsets[j]+int(bins[k]), gh[i])
		}
	}
	return nil
}

func (eh *EncHistogram) add(idx int, v fixedpoint.EncNum) {
	if !eh.reordered {
		if eh.acc[idx].Ct == nil {
			eh.acc[idx] = fixedpoint.EncNum{Exp: v.Exp, Ct: eh.codec.Scheme().EncryptZero()}
		}
		eh.codec.AddEncInto(&eh.acc[idx], v)
		return
	}
	// Gradient exponents are range-checked at ingress, so row indexes the
	// workspace table.
	row := v.Exp - eh.codec.BaseExp()
	if eh.slots[row] == nil {
		eh.slots[row] = make([]he.Ciphertext, eh.totalBins())
	}
	s := eh.codec.Scheme()
	if eh.slots[row][idx] == nil {
		eh.slots[row][idx] = s.EncryptZero()
	}
	eh.codec.Stats().AddHAdds(1)
	eh.slots[row][idx] = s.AddInto(eh.slots[row][idx], v.Ct)
}

// Merge folds another histogram (same shape and strategy) into this one.
func (eh *EncHistogram) Merge(o *EncHistogram) {
	if !eh.reordered {
		for idx, v := range o.acc {
			if v.Ct != nil {
				eh.add(idx, v)
			}
		}
		return
	}
	s := eh.codec.Scheme()
	for row, src := range o.slots {
		if src == nil {
			continue
		}
		if eh.slots[row] == nil {
			eh.slots[row] = src
			continue
		}
		dst := eh.slots[row]
		for idx, ct := range src {
			if ct == nil {
				continue
			}
			if dst[idx] == nil {
				dst[idx] = ct
			} else {
				eh.codec.Stats().AddHAdds(1)
				dst[idx] = s.AddInto(dst[idx], ct)
			}
		}
	}
}

// finalizeRange resolves the accumulation of bins [lo, hi) into one EncNum
// per bin. Empty bins keep a nil ciphertext (serialized as an empty
// payload on the wire). Bins share no state, so disjoint ranges — one
// feature each when a node is wired — finalize concurrently.
func (eh *EncHistogram) finalizeRange(lo, hi int) []fixedpoint.EncNum {
	if !eh.reordered {
		return append([]fixedpoint.EncNum(nil), eh.acc[lo:hi]...)
	}
	bins := make([]fixedpoint.EncNum, hi-lo)
	for k := range bins {
		bins[k] = eh.mergeBin(lo + k)
	}
	return bins
}

// mergeBin combines the per-exponent workspaces of one bin, scaling lower
// rows up to the highest occupied exponent (at most E-1 scalings).
func (eh *EncHistogram) mergeBin(idx int) fixedpoint.EncNum {
	acc := fixedpoint.EncNum{}
	for row := len(eh.slots) - 1; row >= 0; row-- {
		if eh.slots[row] == nil || eh.slots[row][idx] == nil {
			continue
		}
		cur := fixedpoint.EncNum{Exp: eh.codec.BaseExp() + row, Ct: eh.slots[row][idx]}
		if acc.Ct == nil {
			acc = cur
			continue
		}
		scaled := eh.codec.ScaleEnc(cur, acc.Exp)
		acc.Ct = eh.codec.Scheme().AddInto(acc.Ct, scaled.Ct)
		eh.codec.Stats().AddHAdds(1)
	}
	return acc
}

// packPlan is the histogram-packing geometry both sides derive from the
// pair width W negotiated at setup. A packed slot holds one shifted prefix
// of folded sums: the W-bit h field under the g field, which the shift
// 2^(W−1) moves from (−2^(W−1), 2^(W−1)) into W non-negative bits — so a
// slot is exactly 2W bits and only the g field needs a shift.
type packPlan struct {
	// bits is the slot width 2W.
	bits int
	// capacity is t = (S-1)/bits.
	capacity int
	// exp is the unified exponent all packed values use.
	exp int
	// shift is the g-field shift as a plaintext, 2^(2W−1); its encryption
	// seeds the first prefix of every packed feature (it is public — a
	// function of W — so that ciphertext carries no secret).
	shift *big.Int
}

// planPacking derives the packing geometry for pair width w. It fails if
// a single shifted prefix cannot fit in the plaintext space.
func planPacking(codec *fixedpoint.Codec, w int) (packPlan, error) {
	bits := 2 * w
	s := codec.Scheme().Bits()
	if w < 1 || bits >= s {
		return packPlan{}, fmt.Errorf("core: histogram packing infeasible: need %d-bit slots but modulus has %d bits", bits, s)
	}
	return packPlan{
		bits:     bits,
		capacity: (s - 1) / bits,
		exp:      codec.BaseExp() + codec.ExpSpread() - 1,
		shift:    new(big.Int).Lsh(big.NewInt(1), uint(bits-1)),
	}, nil
}

// packedCts is how many ciphertexts a packed feature of numBins bins
// ships.
func (p packPlan) packedCts(numBins int) int {
	return (numBins + p.capacity - 1) / p.capacity
}

// shiftedPrefixes turns one feature's finalized bins into the shifted
// prefix sums histogram packing ships: prefix_0 = bin_0 + shift,
// prefix_k = prefix_{k-1} + bin_k, all at plan.exp. shiftCt must encrypt
// plan.shift. Empty bins contribute nothing (they are zero).
func shiftedPrefixes(codec *fixedpoint.Codec, bins []fixedpoint.EncNum, shiftCt he.Ciphertext, plan packPlan) ([]he.Ciphertext, error) {
	s := codec.Scheme()
	prefixes := make([]he.Ciphertext, len(bins))
	run := shiftCt // shared read-only seed; Add always returns fresh ciphertexts
	for k, b := range bins {
		if b.Ct != nil {
			if b.Exp > plan.exp {
				return nil, fmt.Errorf("core: packing bin at exponent %d above plan exponent %d", b.Exp, plan.exp)
			}
			if b.Exp < plan.exp {
				b = codec.ScaleEnc(b, plan.exp)
			}
			run = s.Add(run, b.Ct)
			codec.Stats().AddHAdds(1)
		}
		prefixes[k] = run
	}
	return prefixes, nil
}

// packChunk packs the c-th run of plan.capacity prefixes of a feature into
// one marshalled ciphertext — the unit a node's packing is parallelized
// over, since the capacity−1 scalar multiplications of one Horner chain
// are where the time goes.
func packChunk(codec *fixedpoint.Codec, prefixes []he.Ciphertext, c int, plan packPlan) ([]byte, error) {
	lo := c * plan.capacity
	packed, err := codec.Pack(prefixes[lo:min(lo+plan.capacity, len(prefixes))], plan.bits)
	if err != nil {
		return nil, err
	}
	return codec.Scheme().Marshal(packed), nil
}

// unpackFeature reverses the packing on Party B: it decrypts the packed
// ciphertexts, slices out the shifted prefixes and differences them back
// to per-bin folded sums at plan.exp, split into their ⟨g,h⟩ fields. All
// arithmetic stays in the exact integer domain — shifted prefixes exceed
// float64's 53-bit exact range, so converting before differencing would
// corrupt low-order bits.
func unpackFeature(pairs fixedpoint.PairPlan, dec he.Decryptor, stats *fixedpoint.Stats, packed [][]byte, numBins int, plan packPlan) (featSums, error) {
	if len(packed) != plan.packedCts(numBins) {
		return featSums{}, fmt.Errorf("core: packed feature of %d bins ships %d ciphertexts, want %d", numBins, len(packed), plan.packedCts(numBins))
	}
	fs := newFeatSums(numBins)
	// The first prefix carries the shift; bin_0 = prefix_0 - shift and
	// bin_k = prefix_k - prefix_{k-1}.
	prev := plan.shift
	k := 0
	for _, ctBytes := range packed {
		ct, err := dec.Unmarshal(ctBytes)
		if err != nil {
			return featSums{}, err
		}
		plain, err := dec.Decrypt(ct)
		if err != nil {
			return featSums{}, err
		}
		stats.AddDecryptions(1)
		for _, m := range fixedpoint.Unpack(plain, plan.bits, min(plan.capacity, numBins-k)) {
			fs.g[k], fs.h[k] = pairs.Split(new(big.Int).Sub(m, prev))
			fs.exp[k] = plan.exp
			prev = m
			k++
		}
	}
	return fs, nil
}
