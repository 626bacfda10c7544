package gbdt

// Histogram holds the per-feature gradient statistics of one tree node:
// for every feature and bin, the sums of gradients and hessians of the
// node's instances whose stored value falls in that bin. Instances with no
// stored entry for a feature contribute to no bin; their mass is recovered
// as nodeTotal - sum(bins) during split finding ("missing goes left").
type Histogram struct {
	mapper  *BinMapper
	Offsets []int // per-feature start index into the flat arrays
	G       []float64
	H       []float64
	Count   []int32
}

// NewHistogram allocates a zeroed histogram shaped by the mapper.
func NewHistogram(m *BinMapper) *Histogram {
	offsets := make([]int, len(m.Cuts)+1)
	for j := range m.Cuts {
		offsets[j+1] = offsets[j] + m.NumBins(j)
	}
	total := offsets[len(m.Cuts)]
	return &Histogram{
		mapper:  m,
		Offsets: offsets,
		G:       make([]float64, total),
		H:       make([]float64, total),
		Count:   make([]int32, total),
	}
}

// NumFeatures returns the feature count.
func (h *Histogram) NumFeatures() int { return len(h.Offsets) - 1 }

// Bins returns the total number of bins across all features.
func (h *Histogram) Bins() int { return len(h.G) }

// Accumulate sweeps the given instances of the binned view into the
// histogram, stopping at the first row the view fails to deliver (the
// partial accumulation is then meaningless and must be discarded).
func (h *Histogram) Accumulate(bm BinView, instances []int32, grads, hess []float64) error {
	for _, i := range instances {
		cols, bins, err := bm.Row(int(i))
		if err != nil {
			return err
		}
		gi, hi := grads[i], hess[i]
		for k, j := range cols {
			idx := h.Offsets[j] + int(bins[k])
			h.G[idx] += gi
			h.H[idx] += hi
			h.Count[idx]++
		}
	}
	return nil
}

// Merge adds another histogram (same shape) into this one. The trainer
// never merges partial histograms (its reduction order is one sweep per
// node); this is for callers that combine histograms of disjoint rows.
func (h *Histogram) Merge(o *Histogram) {
	for i := range h.G {
		h.G[i] += o.G[i]
		h.H[i] += o.H[i]
		h.Count[i] += o.Count[i]
	}
}

// Sub subtracts a child histogram from this one in place, yielding the
// sibling (the classic histogram-subtraction identity).
func (h *Histogram) Sub(o *Histogram) {
	for i := range h.G {
		h.G[i] -= o.G[i]
		h.H[i] -= o.H[i]
		h.Count[i] -= o.Count[i]
	}
}

// Reset zeroes the histogram for reuse.
func (h *Histogram) Reset() {
	for i := range h.G {
		h.G[i] = 0
		h.H[i] = 0
		h.Count[i] = 0
	}
}

// FeatureSlice returns the (G, H) bin slices of feature j; they alias
// internal storage.
func (h *Histogram) FeatureSlice(j int) ([]float64, []float64) {
	lo, hi := h.Offsets[j], h.Offsets[j+1]
	return h.G[lo:hi], h.H[lo:hi]
}
