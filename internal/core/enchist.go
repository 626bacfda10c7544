package core

import (
	"fmt"
	"math/big"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// newHist allocates the empty encrypted histogram of one node: a
// fixedpoint.Sums cell per bin of this party's mapper, feature j's bins at
// [offsets[j], offsets[j+1]). Every homomorphic operation acts on the
// whole folded ⟨g,h⟩ plaintext, so both fields ride along in one cell.
func (p *passiveParty) newHist() *fixedpoint.Sums {
	return fixedpoint.NewSums(p.codec, p.offsets[p.cols], p.cfg.ReorderedAccumulation)
}

// accumulate sweeps the given instances of the binned view into hist; gh
// holds one folded ciphertext per instance. It is not safe for concurrent
// use on one histogram; parallel builders use one per shard and merge. A
// view failure (disk-backed views only) stops the sweep; the partial
// histogram must be discarded and the error routed into the session-abort
// path. The additions, one per (instance, stored feature), are reported
// once per call.
func (p *passiveParty) accumulate(hist *fixedpoint.Sums, bm gbdt.BinView, insts []int32, gh []fixedpoint.EncNum) error {
	var hadds int64
	defer func() { p.codec.Stats().AddHAdds(hadds) }()
	for _, i := range insts {
		cols, bins, err := bm.Row(int(i))
		if err != nil {
			return err
		}
		for k, j := range cols {
			hist.Add(p.offsets[j]+int(bins[k]), gh[i])
		}
		hadds += int64(len(cols))
	}
	return nil
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
	// shift is the g-field shift as a plaintext, 2^(2W−1). B encrypts it
	// once per session and ships it in the setup (MsgSetup.ShiftCt); that
	// ciphertext seeds the first prefix of every packed feature. The
	// plaintext is public — a function of W — so it carries no secret.
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

// packedFeature resolves feature j's bins of hist into the slots the
// node layout ships for it — the shifted prefix sums of its occupied bins,
// prefix_0 = bin_0 + shift and prefix_k = prefix_{k-1} + bin_k, all at
// plan.exp — and the bitmap naming those bins. An empty bin gets no slot:
// it would repeat the previous prefix. Features share no bins, so they
// resolve concurrently.
func (p *passiveParty) packedFeature(hist *fixedpoint.Sums, j int) (FeatHist, []he.Ciphertext) {
	lo, hi := p.offsets[j], p.offsets[j+1]
	fh := FeatHist{NumBins: hi - lo, Occupied: make([]byte, (hi-lo+7)/8)}
	var slots []he.Ciphertext
	var hadds int64
	defer func() { p.codec.Stats().AddHAdds(hadds) }()
	run := p.shiftCt // shared read-only seed; Add always returns fresh ciphertexts
	for k := 0; k < hi-lo; k++ {
		b := hist.Resolve(lo+k, p.plan.exp, &hadds)
		if b.Ct == nil {
			continue
		}
		run = p.codec.Scheme().Add(run, b.Ct)
		hadds++
		fh.Occupied[k/8] |= 1 << (k % 8)
		slots = append(slots, run)
	}
	return fh, slots
}
