package gbdt

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/quantile"
)

// TestBinMapperSketchPath exercises the GK-sketch proposal path, which
// only activates above the exact-sort threshold, and checks the cuts are
// close to true quantiles.
func TestBinMapperSketchPath(t *testing.T) {
	const rows = sketchThreshold + 5000
	rng := rand.New(rand.NewSource(7))
	b := dataset.NewBuilder(1)
	values := make([]float64, rows)
	for i := 0; i < rows; i++ {
		values[i] = rng.NormFloat64()
		if err := b.AddRow([]int32{0}, []float64{values[i]}, 0); err != nil {
			t.Fatal(err)
		}
	}
	d := b.Build()
	m, err := NewBinMapper(d, 10)
	if err != nil {
		t.Fatal(err)
	}
	cuts := m.Cuts[0]
	if len(cuts) < 5 {
		t.Fatalf("sketch proposed only %d cuts", len(cuts))
	}
	sort.Float64s(values)
	// Every cut's rank must be near its nominal decile.
	for k, c := range cuts {
		rank := sort.SearchFloat64s(values, c)
		want := (k + 1) * rows / 10
		if diff := rank - want; diff < -rows/20 || diff > rows/20 {
			t.Errorf("cut %d at rank %d, want ~%d", k, rank, want)
		}
	}
	// Bin mapping must stay monotone across the cuts.
	prev := -1
	for _, v := range []float64{-3, -1, -0.5, 0, 0.5, 1, 3} {
		bin := m.Bin(0, v)
		if bin < prev {
			t.Fatalf("binning not monotone at %g", v)
		}
		prev = bin
	}
}

// TestPartitionConsistentWithPredictRouting: the binned partition used in
// training and the threshold comparison used at prediction time must
// agree for every instance.
func TestPartitionConsistentWithPredictRouting(t *testing.T) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 500, Cols: 6, Density: 0.5, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewBinMapper(d, 12)
	if err != nil {
		t.Fatal(err)
	}
	bm := NewBinnedMatrix(d, m)
	for j := 0; j < d.Cols(); j++ {
		for k := 0; k < m.NumBins(j)-1; k++ {
			threshold := m.Threshold(j, k)
			for i := 0; i < d.Rows(); i += 7 {
				cols, vals := d.Row(i)
				var stored bool
				var v float64
				for c, col := range cols {
					if col == int32(j) {
						stored, v = true, vals[c]
					}
				}
				wantLeft := !stored || v <= threshold
				got, err := GoesLeft(bm, int32(i), int32(j), int32(k))
				if err != nil {
					t.Fatal(err)
				}
				if got != wantLeft {
					t.Fatalf("feature %d bin %d instance %d: binned routing %v, raw routing %v",
						j, k, i, got, wantLeft)
				}
			}
		}
	}
}

// TestSplitGainNonNegativeProperty: the gain of the best split can never
// be negative with Gamma=0 (splitting can only reduce the loss bound).
func TestSplitGainNonNegativeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		nBins := 2 + rng.Intn(10)
		g := make([]float64, nBins)
		h := make([]float64, nBins)
		var tg, th float64
		for i := range g {
			g[i] = rng.NormFloat64()
			h[i] = rng.Float64()
			tg += g[i]
			th += h[i]
		}
		s := BestSplitForFeature(0, g, h, tg, th, SplitParams{Lambda: 1})
		if s.Valid() && s.Gain < 0 {
			t.Fatalf("trial %d: negative best gain %g", trial, s.Gain)
		}
	}
}

// TestLeafWeightMinimizesObjective: ω* = -G/(H+λ) must beat nearby
// weights under the quadratic leaf objective G·ω + 0.5·(H+λ)·ω².
func TestLeafWeightMinimizesObjective(t *testing.T) {
	obj := func(g, h, lambda, w float64) float64 {
		return g*w + 0.5*(h+lambda)*w*w
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		g := rng.NormFloat64() * 10
		h := rng.Float64() * 5
		lambda := rng.Float64() * 2
		w := LeafWeight(g, h, lambda)
		best := obj(g, h, lambda, w)
		for _, eps := range []float64{-0.1, -0.01, 0.01, 0.1} {
			if obj(g, h, lambda, w+eps) < best-1e-12 {
				t.Fatalf("trial %d: ω*+%g beats ω*", trial, eps)
			}
		}
	}
}

// TestCutAccumulatorSortsInPlace: Cuts sorts the buffer the accumulator
// owns instead of copying it, and proposes the cuts the copying path does
// — exact quantiles of a sorted copy for a column that stays in memory, a
// sketch fed the values in order for one that spills — whether the
// column is fed whole (NewBinMapper) or a row at a time beside another
// column (the streamed build). The dataset's values keep their order.
func TestCutAccumulatorSortsInPlace(t *testing.T) {
	const maxBins = 16
	for _, rows := range []int{1000, sketchThreshold + 3000} {
		rng := rand.New(rand.NewSource(int64(rows)))
		b := dataset.NewBuilder(2)
		cols := [2][]float64{make([]float64, rows), make([]float64, rows)}
		for i := 0; i < rows; i++ {
			cols[0][i], cols[1][i] = rng.NormFloat64(), float64(rng.Intn(40))
			if err := b.AddRow([]int32{0, 1}, []float64{cols[0][i], cols[1][i]}, 0); err != nil {
				t.Fatal(err)
			}
		}
		d := b.Build()
		m, err := NewBinMapper(d, maxBins)
		if err != nil {
			t.Fatal(err)
		}
		var streamed [2]CutAccumulator
		for i := 0; i < rows; i++ {
			for j := range streamed {
				streamed[j].Add(cols[j][i], maxBins)
			}
		}
		for j, values := range cols {
			var want []float64
			if rows <= sketchThreshold {
				want = quantile.Exact(append([]float64(nil), values...), maxBins)
			} else {
				sk := quantile.MustNew(0.5 / maxBins)
				for _, v := range values {
					sk.Add(v)
				}
				want = sk.Quantiles(maxBins)
			}
			if !reflect.DeepEqual(m.Cuts[j], want) {
				t.Errorf("%d rows, column %d: NewBinMapper cuts %v, copying path %v", rows, j, m.Cuts[j], want)
			}
			if got := streamed[j].Cuts(maxBins); !reflect.DeepEqual(got, want) {
				t.Errorf("%d rows, column %d: streamed cuts %v, copying path %v", rows, j, got, want)
			}
			if !reflect.DeepEqual(d.ColumnValues(j), values) {
				t.Errorf("%d rows, column %d: proposing cuts reordered the dataset's values", rows, j)
			}
		}
	}
}
