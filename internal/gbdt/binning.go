package gbdt

import (
	"fmt"
	"sort"

	"vf2boost/internal/dataset"
	"vf2boost/internal/quantile"
)

// sketchThreshold is the column size above which cut proposal switches
// from exact sorting to the GK sketch.
const sketchThreshold = 1 << 15

// BinView is the read interface over a party's binned feature rows that
// histogram construction, split routing, and tree growth sweep. Two
// implementations exist: the in-memory BinnedMatrix below and the
// disk-backed shard store in internal/ooc — the local trainer and the
// federated engines in internal/core run unchanged against either.
type BinView interface {
	// Rows returns the instance count.
	Rows() int
	// Mapper returns the bin mapper the view was discretized with.
	Mapper() *BinMapper
	// Row returns the stored (feature, bin) pairs of row i, sorted by
	// feature. The slices alias backing storage and must not be modified;
	// an out-of-core view guarantees they stay readable even if the
	// backing shard is later evicted (the GC keeps them alive).
	//
	// A disk-backed view may fail: the error is the view's typed fault
	// (e.g. *ooc.ShardError after retry and rebuild were exhausted) and
	// the sweep in progress must stop and propagate it — training treats
	// it as unrecoverable for the round, and the federated engines turn
	// it into a clean session abort. In-memory views always return nil.
	Row(i int) ([]int32, []uint8, error)
}

// BinMapper holds the per-feature candidate split values ("cuts"). Bin k
// of feature j contains stored values v with cuts[k-1] < v <= cuts[k];
// values above the last cut land in the final bin. Instances with no
// stored entry for a feature ("missing", which includes sparse zeros)
// always route to the left child — see the package comment of
// internal/core for why this convention is shared across engines.
type BinMapper struct {
	// Cuts[j] is strictly increasing; len(Cuts[j])+1 bins exist.
	Cuts [][]float64
	// MaxBins is the configured s.
	MaxBins int
}

// NewBinMapper proposes up to maxBins-1 cuts per feature from the stored
// values of each column, fed column by column through a CutAccumulator.
func NewBinMapper(d *dataset.Dataset, maxBins int) (*BinMapper, error) {
	if maxBins < 2 || maxBins > 256 {
		return nil, fmt.Errorf("gbdt: maxBins %d out of [2,256]", maxBins)
	}
	cuts := make([][]float64, d.Cols())
	for j := range cuts {
		var acc CutAccumulator
		for _, v := range d.ColumnValues(j) {
			acc.Add(v, maxBins)
		}
		cuts[j] = acc.Cuts(maxBins)
	}
	return &BinMapper{Cuts: cuts, MaxBins: maxBins}, nil
}

// CutAccumulator is the one cut rule: it proposes one feature's cuts
// from that feature's stored values, fed in row order. Values buffer
// exactly until the column outgrows sketchThreshold, then spill, in
// insertion order, into a GK sketch of eps 0.5/maxBins. So a small column
// gets exact quantiles and a large one sketch quantiles, and the cuts
// depend only on the value sequence: NewBinMapper feeds a whole column,
// the out-of-core build (internal/ooc) feeds every column a row at a time,
// and both propose byte-identical cuts. At most sketchThreshold values
// are buffered, so a streamed build's memory is bounded by its column
// count however many rows pass. The zero value is empty.
type CutAccumulator struct {
	buf []float64
	sk  *quantile.Sketch
}

// Add feeds the feature's next stored value. maxBins must be the same on
// every call and in Cuts.
func (a *CutAccumulator) Add(v float64, maxBins int) {
	if a.sk != nil {
		a.sk.Add(v)
		return
	}
	a.buf = append(a.buf, v)
	if len(a.buf) > sketchThreshold {
		a.sk = quantile.MustNew(0.5 / float64(maxBins))
		for _, x := range a.buf {
			a.sk.Add(x)
		}
		a.buf = nil
	}
}

// Cuts returns up to maxBins-1 strictly increasing cuts; nil when no
// value was added.
func (a *CutAccumulator) Cuts(maxBins int) []float64 {
	if a.sk != nil {
		return a.sk.Quantiles(maxBins)
	}
	return quantile.Exact(a.buf, maxBins)
}

// NumBins returns the bin count of feature j (at least 1).
func (m *BinMapper) NumBins(j int) int { return len(m.Cuts[j]) + 1 }

// Bin maps a stored value of feature j to its bin index.
func (m *BinMapper) Bin(j int, v float64) int {
	return sort.SearchFloat64s(m.Cuts[j], v)
}

// Threshold returns the split value of candidate bin k of feature j:
// instances with v <= Threshold go left.
func (m *BinMapper) Threshold(j, k int) float64 { return m.Cuts[j][k] }

// BinnedMatrix is the CSR matrix of (feature, bin) pairs that histogram
// construction sweeps over; it is built once per party and reused for
// every tree.
type BinnedMatrix struct {
	rows   int
	rowPtr []int32
	cols   []int32
	bins   []uint8
	mapper *BinMapper
}

// NewBinnedMatrix discretizes every stored entry of d through the mapper.
func NewBinnedMatrix(d *dataset.Dataset, m *BinMapper) *BinnedMatrix {
	bm := &BinnedMatrix{
		rows:   d.Rows(),
		rowPtr: make([]int32, 0, d.Rows()+1),
		cols:   make([]int32, 0, d.NNZ()),
		bins:   make([]uint8, 0, d.NNZ()),
		mapper: m,
	}
	bm.rowPtr = append(bm.rowPtr, 0)
	for i := 0; i < d.Rows(); i++ {
		cols, vals := d.Row(i)
		for k, j := range cols {
			bm.cols = append(bm.cols, j)
			bm.bins = append(bm.bins, uint8(m.Bin(int(j), vals[k])))
		}
		bm.rowPtr = append(bm.rowPtr, int32(len(bm.cols)))
	}
	return bm
}

// Rows returns the instance count.
func (bm *BinnedMatrix) Rows() int { return bm.rows }

// Mapper returns the bin mapper used to build the matrix.
func (bm *BinnedMatrix) Mapper() *BinMapper { return bm.mapper }

// Row returns the stored (feature, bin) pairs of row i; the slices alias
// internal storage. The error is always nil: memory does not fail.
func (bm *BinnedMatrix) Row(i int) ([]int32, []uint8, error) {
	lo, hi := bm.rowPtr[i], bm.rowPtr[i+1]
	return bm.cols[lo:hi], bm.bins[lo:hi], nil
}

// NNZ returns the stored entry count.
func (bm *BinnedMatrix) NNZ() int { return len(bm.cols) }

var _ BinView = (*BinnedMatrix)(nil)
