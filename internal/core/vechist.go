package core

import (
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
)

// vecHist is the slot-batched counterpart of EncHistogram: the passive
// party accumulates whole gradient-window ciphertexts (k = pairs ⟨g,h⟩
// pairs each) instead of per-instance scalars. Instance i lives in window
// i/pairs at pair slot i%pairs, so adding its window ciphertext into the
// accumulator of (bin, i%pairs) deposits its ⟨g,h⟩ lanes — together with
// its window-mates' values, which land in other lanes of the same
// accumulator and are simply never read. One HAdd per instance per
// feature, exactly like the scalar path, but each shipped ciphertext
// carries a whole bin-slot sum, so Party B's decrypt count drops by up to
// the per-feature occupancy and the gradient stream shrinks by ~pairs×.
//
// Correctness of the garbage lanes: every lane of an accumulator is a sum
// of at most count ≤ rows < 2^headroom lane values, so no lane ever
// carries into its neighbour; DecryptVec's layout check proves it.
type vecHist struct {
	codec   *fixedpoint.Codec
	backend he.Backend
	offsets []int
	pairs   int
	// cts/counts are indexed (offsets[feature]+bin)·pairs + slot; a nil
	// ciphertext (count 0) is an empty accumulator.
	cts    []he.VecCiphertext
	counts []int32
}

func newVecHist(codec *fixedpoint.Codec, backend he.Backend, offsets []int, pairs int) *vecHist {
	total := offsets[len(offsets)-1] * pairs
	return &vecHist{
		codec:   codec,
		backend: backend,
		offsets: offsets,
		pairs:   pairs,
		cts:     make([]he.VecCiphertext, total),
		counts:  make([]int32, total),
	}
}

// accumulate sweeps instances into the per-(bin, slot) accumulators. wins
// holds the tree's window ciphertexts, indexed by instance/pairs; it is
// read-only here, so shard builders may share it. Not safe for concurrent
// use on one vecHist. A view failure stops the sweep and invalidates the
// partial accumulation.
func (vh *vecHist) accumulate(bm gbdt.BinView, insts []int32, wins []he.VecCiphertext) error {
	var hadds int64
	defer func() { vh.codec.Stats().AddHAdds(hadds) }()
	for _, i := range insts {
		w := wins[int(i)/vh.pairs]
		slot := int(i) % vh.pairs
		cols, bins, err := bm.Row(int(i))
		if err != nil {
			return err
		}
		for k, j := range cols {
			idx := (vh.offsets[j]+int(bins[k]))*vh.pairs + slot
			if vh.cts[idx] == nil {
				vh.cts[idx] = vh.backend.AddVecInto(vh.backend.EncryptZeroVec(), w)
			} else {
				vh.cts[idx] = vh.backend.AddVecInto(vh.cts[idx], w)
			}
			hadds++
			vh.counts[idx]++
		}
	}
	return nil
}

// merge folds another shard's accumulators (same shape) into this one.
func (vh *vecHist) merge(o *vecHist) {
	var hadds int64
	defer func() { vh.codec.Stats().AddHAdds(hadds) }()
	for idx, ct := range o.cts {
		if ct == nil {
			continue
		}
		if vh.cts[idx] == nil {
			vh.cts[idx] = ct
		} else {
			vh.cts[idx] = vh.backend.AddVecInto(vh.cts[idx], ct)
			hadds++
		}
		vh.counts[idx] += o.counts[idx]
	}
}

// wireFeat serializes one feature's occupied accumulators into the
// vectorized FeatHist representation.
func (vh *vecHist) wireFeat(feature int) FeatHist {
	lo, hi := vh.offsets[feature], vh.offsets[feature+1]
	fh := FeatHist{NumBins: hi - lo, Vec: true}
	for bin := lo; bin < hi; bin++ {
		for slot := 0; slot < vh.pairs; slot++ {
			idx := bin*vh.pairs + slot
			if vh.counts[idx] == 0 {
				continue
			}
			fh.VecBin = append(fh.VecBin, int32(bin-lo))
			fh.VecSlot = append(fh.VecSlot, int32(slot))
			fh.VecCount = append(fh.VecCount, vh.counts[idx])
			fh.VecCts = append(fh.VecCts, vh.backend.MarshalVec(vh.cts[idx]))
		}
	}
	return fh
}
