package ooc

import (
	"fmt"

	"vf2boost/internal/gbdt"
)

// proposeCuts runs pass 1, proposing per-feature cuts from one streaming
// read, and returns the mapper plus the row count. The reader hands over
// chunks in row order, and a chunk's entries are row-ordered, so each
// feature's gbdt.CutAccumulator sees the value sequence the in-memory
// gbdt.NewBinMapper feeds it and proposes byte-identical cuts. Peak
// pass-1 memory is bounded by the accumulators' buffers and the reader's
// chunks, however many rows stream past.
func proposeCuts(src Source, opt BuildOptions) (*gbdt.BinMapper, int, error) {
	accs := make([]gbdt.CutAccumulator, src.Cols())
	rows := 0
	r := chunkReader{src: src, height: opt.ChunkRows, workers: opt.Workers}
	err := r.read(0, allRows, func(c *chunk) error {
		rows += c.rows()
		for k, j := range c.cols {
			accs[j].Add(c.vals[k], opt.MaxBins)
		}
		return nil
	})
	if err != nil {
		return nil, 0, fmt.Errorf("ooc: sketch pass: %w", err)
	}
	cuts := make([][]float64, len(accs))
	for j := range accs {
		cuts[j] = accs[j].Cuts(opt.MaxBins)
	}
	return &gbdt.BinMapper{Cuts: cuts, MaxBins: opt.MaxBins}, rows, nil
}
