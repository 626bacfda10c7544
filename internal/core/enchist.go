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
//     is a plain HAdd; mergeBin folds the E rows with at most E-1 scalings
//     per occupied bin.
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
//
// Homomorphic additions made on the scheme directly are counted locally
// and reported once per call (here, in Merge and in packedFeature): one
// shared atomic per addition was millions of contended writes per tree.
func (eh *EncHistogram) Accumulate(bm gbdt.BinView, insts []int32, gh []fixedpoint.EncNum) error {
	var hadds int64
	defer func() { eh.codec.Stats().AddHAdds(hadds) }()
	for _, i := range insts {
		cols, bins, err := bm.Row(int(i))
		if err != nil {
			return err
		}
		for k, j := range cols {
			eh.add(eh.offsets[j]+int(bins[k]), gh[i])
		}
		if eh.reordered { // the naive path adds through the codec, which counts
			hadds += int64(len(cols))
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
	var hadds int64
	defer func() { eh.codec.Stats().AddHAdds(hadds) }()
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
				hadds++
				dst[idx] = s.AddInto(dst[idx], ct)
			}
		}
	}
}

// mergeBin resolves one bin's accumulation to a single ciphertext at
// exponent toExp, the top of the codec's range. An empty bin stays nil.
// The workspace rows fold from the lowest up — scale the running sum to
// the next occupied row, add the row — so every occupied row below the
// result costs one scaling by a small scalar. Bins share no state and
// finalize concurrently; merging consumes the bin's accumulators. The
// additions made are added to *hadds for the caller to report.
func (eh *EncHistogram) mergeBin(idx, toExp int, hadds *int64) fixedpoint.EncNum {
	var acc fixedpoint.EncNum
	if !eh.reordered {
		acc = eh.acc[idx]
	}
	for row, ws := range eh.slots {
		if ws == nil || ws[idx] == nil {
			continue
		}
		cur := fixedpoint.EncNum{Exp: eh.codec.BaseExp() + row, Ct: ws[idx]}
		if acc.Ct != nil {
			cur.Ct = eh.codec.Scheme().AddInto(eh.codec.ScaleEnc(acc, cur.Exp).Ct, cur.Ct)
			*hadds++
		}
		acc = cur
	}
	if acc.Ct != nil && acc.Exp < toExp {
		acc = eh.codec.ScaleEnc(acc, toExp)
	}
	return acc
}

// packPlan is the node-layout geometry both sides derive from the pair
// width W negotiated at setup. A slot holds one shifted prefix of folded
// sums: the W-bit h field under the g field, which the shift 2^(W−1)
// moves from (−2^(W−1), 2^(W−1)) into W non-negative bits — so a slot is
// exactly 2W bits and only the g field needs a shift.
type packPlan struct {
	// bits is the slot width 2W.
	bits int
	// capacity is t = (S-1)/bits slots per ciphertext under histogram
	// packing, and 1 without it: every slot then ships as its own
	// ciphertext.
	capacity int
	// exp is the unified exponent all packed values use.
	exp int
	// shift is the g-field shift as a plaintext, 2^(2W−1); its encryption
	// seeds the first prefix of every packed feature (it is public — a
	// function of W — so that ciphertext carries no secret).
	shift *big.Int
}

// planPacking derives the node-layout geometry for pair width w, packing
// as many slots per ciphertext as fit when packing is set and one
// otherwise. It fails if a single shifted prefix cannot fit in the
// plaintext space.
func planPacking(codec *fixedpoint.Codec, w int, packing bool) (packPlan, error) {
	bits := 2 * w
	s := codec.Scheme().Bits()
	if w < 1 || bits >= s {
		return packPlan{}, fmt.Errorf("core: histogram packing infeasible: need %d-bit slots but modulus has %d bits", bits, s)
	}
	capacity := 1
	if packing {
		capacity = (s - 1) / bits
	}
	return packPlan{
		bits:     bits,
		capacity: capacity,
		exp:      codec.BaseExp() + codec.ExpSpread() - 1,
		shift:    new(big.Int).Lsh(big.NewInt(1), uint(bits-1)),
	}, nil
}

// chunks is how many ciphertexts a node of the given slot count ships.
func (p packPlan) chunks(slots int) int {
	return (slots + p.capacity - 1) / p.capacity
}

// chunk is the slot range [lo, hi) of a node's c-th ciphertext: the slots
// are cut into chunks(slots) runs whose lengths differ by at most one,
// longer runs first — a pure function of (slots, capacity) both parties
// evaluate, and the unit of work of both.
func (p packPlan) chunk(slots, c int) (lo, hi int) {
	n := p.chunks(slots)
	size, long := slots/n, slots%n
	lo = c*size + min(c, long)
	if c < long {
		size++
	}
	return lo, lo + size
}

// packedFeature resolves bins [lo, hi) of one feature into the slots the
// node layout ships for it — the shifted prefix sums of its occupied bins,
// prefix_0 = bin_0 + shift and prefix_k = prefix_{k-1} + bin_k, all at
// plan.exp — and the bitmap naming those bins. An empty bin gets no slot:
// it would repeat the previous prefix. shiftCt must encrypt plan.shift.
func (eh *EncHistogram) packedFeature(lo, hi int, shiftCt he.Ciphertext, plan packPlan) (FeatHist, []he.Ciphertext) {
	fh := FeatHist{NumBins: hi - lo, Occupied: make([]byte, (hi-lo+7)/8)}
	var slots []he.Ciphertext
	var hadds int64
	defer func() { eh.codec.Stats().AddHAdds(hadds) }()
	run := shiftCt // shared read-only seed; Add always returns fresh ciphertexts
	for k := 0; k < hi-lo; k++ {
		b := eh.mergeBin(lo+k, plan.exp, &hadds)
		if b.Ct == nil {
			continue
		}
		run = eh.codec.Scheme().Add(run, b.Ct)
		hadds++
		fh.Occupied[k/8] |= 1 << (k % 8)
		slots = append(slots, run)
	}
	return fh, slots
}
