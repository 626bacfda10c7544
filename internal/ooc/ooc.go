// Package ooc is the out-of-core training substrate: a disk-backed
// binned-column store built in streaming passes, so training runs within
// a fixed memory budget regardless of dataset size — the storage-layer
// constraint that binds before the crypto once rows reach 10^8 (see
// "Large-Scale Secure XGB for Vertical Federated Learning").
//
// The store is built from a rescannable row Source in two passes. Pass 1
// feeds per-feature quantile accumulators that reproduce the in-memory
// binning decision exactly: a feature's values buffer until the column
// outgrows gbdt.SketchThreshold, then spill into a GK sketch in the same
// insertion order the in-memory path uses — so the proposed cuts, and
// therefore every split of the trained model, are byte-identical to
// gbdt.NewBinMapper over the materialized dataset. Pass 2 discretizes
// each row through the mapper and spills CRC-guarded binned shards to
// disk, each covering a contiguous row range of the party's feature
// group (in vertical FL, every party's store holds exactly its own
// feature group). At train time a Store implements gbdt.BinView by
// loading and evicting shards under a configurable memory budget with
// depth-aware prefetch, so the trainer and the federated party engines
// in internal/core run unchanged against it.
package ooc

import (
	"fmt"
	"io"
	"os"

	"vf2boost/internal/dataset"
)

// Source is a rescannable stream of sparse rows: Scan delivers every row
// in order, with entries sorted by column, and may be called multiple
// times, always replaying the identical stream (the builder scans twice:
// once to sketch, once to discretize). The indices and values slices
// passed to the callback are owned by the source and reused between
// rows. Labeled reports whether the label values carry information
// (passive-party sources deliver zeros).
type Source interface {
	Cols() int
	Labeled() bool
	Scan(fn func(row int, indices []int32, values []float64, label float64) error) error
}

// RangeSource is an optional Source capability: the row count is known
// up front and any contiguous row range can be replayed independently.
// ScanRange(lo, hi, fn) delivers exactly rows [lo, hi) in order, with
// the same row indices, entries and labels a full Scan would deliver
// for those rows, and must be safe to call from multiple goroutines
// concurrently (each call carries its own iteration state) — it is what
// lets the build pass discretize chunks in parallel and the store
// rebuild a single shard without replaying the whole stream.
type RangeSource interface {
	Source
	Rows() int
	ScanRange(lo, hi int, fn func(row int, indices []int32, values []float64, label float64) error) error
}

// AsRangeSource unwraps src to its range-scannable form if it has one:
// either src implements RangeSource directly, or it is a ColumnSlice
// over one (the projection is re-applied with per-call buffers so
// concurrent range scans don't share state).
func AsRangeSource(src Source) (RangeSource, bool) {
	if rs, ok := src.(RangeSource); ok {
		return rs, true
	}
	if cs, ok := src.(*ColumnSlice); ok {
		if inner, ok := AsRangeSource(cs.src); ok {
			return &rangeColumnSlice{ColumnSlice: cs, inner: inner}, true
		}
	}
	return nil, false
}

// LibSVMSource streams a LibSVM file from disk. The file is reopened on
// every Scan, so memory stays O(1) per row. It is not a RangeSource:
// line boundaries are unknown without a full scan.
type LibSVMSource struct {
	path string
	cols int
}

// NewLibSVMSource opens a LibSVM file source. cols <= 0 runs one
// inference pass to discover the column count.
func NewLibSVMSource(path string, cols int) (*LibSVMSource, error) {
	if cols <= 0 {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		_, maxCols, err := dataset.ScanLibSVM(f, 0, func([]int32, []float64, float64) error { return nil })
		f.Close()
		if err != nil {
			return nil, err
		}
		if maxCols == 0 {
			return nil, fmt.Errorf("ooc: %s has no feature columns", path)
		}
		cols = maxCols
	}
	return &LibSVMSource{path: path, cols: cols}, nil
}

// Cols returns the feature count.
func (s *LibSVMSource) Cols() int { return s.cols }

// Labeled reports true: LibSVM rows always carry a label field.
func (s *LibSVMSource) Labeled() bool { return true }

// Scan replays the file through the callback.
func (s *LibSVMSource) Scan(fn func(row int, indices []int32, values []float64, label float64) error) error {
	f, err := os.Open(s.path)
	if err != nil {
		return err
	}
	defer f.Close()
	row := 0
	_, _, err = dataset.ScanLibSVM(f, s.cols, func(indices []int32, values []float64, label float64) error {
		err := fn(row, indices, values, label)
		row++
		return err
	})
	if err == io.EOF {
		return nil
	}
	return err
}

// SynthSource streams a deterministic synthetic dataset (see
// dataset.StreamGenerator); the stats pre-pass runs once at construction.
type SynthSource struct{ gen *dataset.StreamGenerator }

// NewSynthSource builds a synthetic source from generator options.
func NewSynthSource(o dataset.GenOptions) (*SynthSource, error) {
	g, err := dataset.NewStreamGenerator(o)
	if err != nil {
		return nil, err
	}
	return &SynthSource{gen: g}, nil
}

// Cols returns the feature count.
func (s *SynthSource) Cols() int { return s.gen.Cols() }

// Labeled reports true.
func (s *SynthSource) Labeled() bool { return true }

// Scan replays the generated stream.
func (s *SynthSource) Scan(fn func(row int, indices []int32, values []float64, label float64) error) error {
	return s.gen.Scan(fn)
}

// Rows returns the configured row count.
func (s *SynthSource) Rows() int { return s.gen.Rows() }

// ScanRange replays rows [lo, hi); every row is generated from its own
// seed, so any range reproduces exactly the rows a full Scan delivers
// and concurrent calls are independent.
func (s *SynthSource) ScanRange(lo, hi int, fn func(row int, indices []int32, values []float64, label float64) error) error {
	return s.gen.ScanRange(lo, hi, fn)
}

// DatasetSource adapts an in-memory Dataset to the Source interface —
// mostly a test instrument: building a store from the same Dataset the
// in-memory path binned is how byte-identical parity is asserted.
type DatasetSource struct{ d *dataset.Dataset }

// NewDatasetSource wraps a dataset.
func NewDatasetSource(d *dataset.Dataset) *DatasetSource { return &DatasetSource{d: d} }

// Cols returns the feature count.
func (s *DatasetSource) Cols() int { return s.d.Cols() }

// Labeled reports whether the dataset carries labels.
func (s *DatasetSource) Labeled() bool { return s.d.Labels != nil }

// Scan replays the dataset's rows.
func (s *DatasetSource) Scan(fn func(row int, indices []int32, values []float64, label float64) error) error {
	return s.ScanRange(0, s.d.Rows(), fn)
}

// Rows returns the dataset's row count.
func (s *DatasetSource) Rows() int { return s.d.Rows() }

// ScanRange replays rows [lo, hi); the dataset is immutable, so
// concurrent range scans are safe.
func (s *DatasetSource) ScanRange(lo, hi int, fn func(row int, indices []int32, values []float64, label float64) error) error {
	if lo < 0 || hi > s.d.Rows() || lo > hi {
		return fmt.Errorf("ooc: row range [%d,%d) out of [0,%d)", lo, hi, s.d.Rows())
	}
	for i := lo; i < hi; i++ {
		cols, vals := s.d.Row(i)
		label := 0.0
		if s.d.Labels != nil {
			label = s.d.Labels[i]
		}
		if err := fn(i, cols, vals, label); err != nil {
			return err
		}
	}
	return nil
}

// ColumnSlice projects a source onto the contiguous column range
// [lo, hi), renumbered to start at 0, optionally stripping labels — the
// vertical split of a stream: each party's store is built from its own
// slice of the joined row stream, without ever materializing the join.
type ColumnSlice struct {
	src        Source
	lo, hi     int
	keepLabels bool
}

// NewColumnSlice validates the range against the source width.
func NewColumnSlice(src Source, lo, hi int, keepLabels bool) (*ColumnSlice, error) {
	if lo < 0 || hi > src.Cols() || lo >= hi {
		return nil, fmt.Errorf("ooc: column slice [%d,%d) out of [0,%d)", lo, hi, src.Cols())
	}
	return &ColumnSlice{src: src, lo: lo, hi: hi, keepLabels: keepLabels}, nil
}

// Cols returns the slice width.
func (s *ColumnSlice) Cols() int { return s.hi - s.lo }

// Labeled reports whether labels pass through.
func (s *ColumnSlice) Labeled() bool { return s.keepLabels && s.src.Labeled() }

// Scan replays the projected stream. Rows with no entry in the range are
// still delivered (instance alignment across parties).
func (s *ColumnSlice) Scan(fn func(row int, indices []int32, values []float64, label float64) error) error {
	return s.src.Scan(s.project(fn))
}

// rowFunc is the per-row callback of Scan and ScanRange.
type rowFunc = func(row int, indices []int32, values []float64, label float64) error

// project wraps fn in the slice's projection. Each call owns its row
// buffers, so concurrent scans of one slice never share state.
func (s *ColumnSlice) project(fn rowFunc) rowFunc {
	var idx []int32
	var val []float64
	return func(row int, indices []int32, values []float64, label float64) error {
		idx, val = idx[:0], val[:0]
		for k, j := range indices {
			if int(j) >= s.lo && int(j) < s.hi {
				idx = append(idx, j-int32(s.lo))
				val = append(val, values[k])
			}
		}
		if !s.keepLabels {
			label = 0
		}
		return fn(row, idx, val, label)
	}
}

// rangeColumnSlice is a ColumnSlice whose underlying source is
// range-scannable.
type rangeColumnSlice struct {
	*ColumnSlice
	inner RangeSource
}

// Rows returns the underlying source's row count (a column slice keeps
// every row for instance alignment).
func (s *rangeColumnSlice) Rows() int { return s.inner.Rows() }

// ScanRange replays the projected rows [lo, hi).
func (s *rangeColumnSlice) ScanRange(lo, hi int, fn func(row int, indices []int32, values []float64, label float64) error) error {
	return s.inner.ScanRange(lo, hi, s.project(fn))
}
