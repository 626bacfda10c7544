package ooc

import (
	"fmt"

	"vf2boost/internal/gbdt"
	"vf2boost/internal/quantile"
)

// Pass 1: propose per-feature cuts from one streaming read.
//
// The accumulator reproduces gbdt.NewBinMapper bin-for-bin: a feature's
// values buffer exactly until the column outgrows gbdt.SketchThreshold,
// then spill into a GK sketch in insertion order — the same
// exact-vs-sketch switch, the same eps, the same value order (the
// in-memory path feeds its sketch from the CSC column view, which is
// row-ordered, and the chunk reader delivers rows in order). Peak pass-1
// memory is therefore min(nnz, cols·SketchThreshold) float64s plus the
// reader's chunks: bounded by the column count and chunk height however
// many rows stream past.

// featAcc is one feature's cut-proposal state.
type featAcc struct {
	buf []float64
	sk  *quantile.Sketch
}

func (a *featAcc) add(v float64, eps float64) {
	if a.sk != nil {
		a.sk.Add(v)
		return
	}
	a.buf = append(a.buf, v)
	if len(a.buf) > gbdt.SketchThreshold {
		sk := quantile.MustNew(eps)
		for _, x := range a.buf {
			sk.Add(x)
		}
		a.sk = sk
		a.buf = nil
	}
}

func (a *featAcc) cuts(maxBins int) []float64 {
	if a.sk != nil {
		return a.sk.Quantiles(maxBins)
	}
	if len(a.buf) == 0 {
		return nil
	}
	return quantile.Exact(a.buf, maxBins)
}

// proposeCuts runs pass 1 and returns the mapper plus the row count.
// The reader hands over chunks in row order, and a chunk's entries are
// row-ordered, so each accumulator sees its feature's values in the
// order a sequential scan would.
func proposeCuts(src Source, opt BuildOptions) (*gbdt.BinMapper, int, error) {
	eps := 0.5 / float64(opt.MaxBins)
	accs := make([]featAcc, src.Cols())
	rows := 0
	r := chunkReader{src: src, height: opt.ChunkRows, workers: opt.Workers}
	err := r.read(0, allRows, func(c *chunk) error {
		rows += c.rows()
		for k, j := range c.cols {
			accs[j].add(c.vals[k], eps)
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("ooc: sketch pass: %w", err)
	}
	cuts := make([][]float64, len(accs))
	for j := range accs {
		cuts[j] = accs[j].cuts(opt.MaxBins)
	}
	return &gbdt.BinMapper{Cuts: cuts, MaxBins: opt.MaxBins}, rows, nil
}
