package ooc

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"vf2boost/internal/gbdt"
)

// chunk is a run of consecutive source rows in CSR form: their column
// indices, raw values and labels, plus their bins once the chunk has
// been binned. The embedded shardData is the shard those rows make.
type chunk struct {
	shardData
	vals   []float64
	labels []float64
}

// rows returns how many rows the chunk holds.
func (c *chunk) rows() int { return len(c.rowPtr) - 1 }

// reset empties the chunk for rows starting at lo, keeping its buffers.
func (c *chunk) reset(lo int) {
	c.startRow = lo
	c.rowPtr = append(c.rowPtr[:0], 0)
	c.cols, c.bins, c.vals, c.labels = c.cols[:0], c.bins[:0], c.vals[:0], c.labels[:0]
}

// add appends one row.
func (c *chunk) add(indices []int32, values []float64, label float64) {
	c.cols = append(c.cols, indices...)
	c.vals = append(c.vals, values...)
	c.rowPtr = append(c.rowPtr, int32(len(c.cols)))
	c.labels = append(c.labels, label)
}

// bin discretizes every entry of the chunk through the mapper.
func (c *chunk) bin(mapper *gbdt.BinMapper) {
	c.bins = slices.Grow(c.bins[:0], len(c.cols))[:len(c.cols)]
	for k, j := range c.cols {
		c.bins[k] = uint8(mapper.Bin(int(j), c.vals[k]))
	}
}

// allRows as a range end reads a source to its last row.
const allRows = math.MaxInt

// errStopScan ends a source scan once the requested range is read.
var errStopScan = errors.New("ooc: stop scan")

// chunkReader is the one way the store reads a Source: the build's cut
// pass, its discretize-and-spill pass and shard repair all take the
// source's rows as chunks of height rows, in row order, and bin them
// (when mapper is set) in the same place.
type chunkReader struct {
	src     Source
	height  int
	workers int
	mapper  *gbdt.BinMapper // nil leaves chunks unbinned
}

// read hands rows [lo, hi) to fn chunk by chunk in row order; every
// chunk starts at lo plus a multiple of the height, and only the last
// may be shorter. With more than one worker and a range-scannable source
// the chunks are read and binned concurrently; otherwise one scan (a
// range scan where the source has one) fills one reused chunk, so the
// sequential peak is one raw chunk (12 B per entry) plus its bins. A
// chunk is refilled once fn has returned and another row arrives, so fn
// must copy what it keeps; the range's last chunk is never refilled.
func (r chunkReader) read(lo, hi int, fn func(*chunk) error) error {
	rs, ranged := AsRangeSource(r.src)
	if ranged {
		hi = min(hi, rs.Rows())
		if r.workers > 1 {
			return r.readParallel(rs, lo, hi, fn)
		}
	}
	c := new(chunk)
	c.reset(lo)
	flush := func() error {
		if r.mapper != nil {
			c.bin(r.mapper)
		}
		return fn(c)
	}
	add := func(row int, indices []int32, values []float64, label float64) error {
		if row < lo {
			return nil
		}
		if row >= hi {
			return errStopScan
		}
		if c.rows() == r.height {
			c.reset(c.startRow + r.height) // fn is done with the full chunk
		}
		c.add(indices, values, label)
		if c.rows() == r.height {
			return flush()
		}
		return nil
	}
	var err error
	if ranged {
		err = rs.ScanRange(lo, hi, add)
	} else {
		err = r.src.Scan(add)
	}
	if err != nil && !errors.Is(err, errStopScan) {
		return err
	}
	if n := c.rows(); n > 0 && n < r.height {
		return flush()
	}
	return nil
}

// readParallel is read's concurrent branch. Up to r.workers goroutines
// each claim the next chunk index, range-scan and bin that chunk, and
// the calling goroutine hands the chunks to fn in index order, so fn
// runs on one goroutine exactly as in the sequential branch. The chunk
// buffers are the ticket window: a worker takes a free one before it
// claims an index, so at most workers+2 chunks are in flight and they
// are always the next ones the caller needs — bounded memory, no
// deadlock.
func (r chunkReader) readParallel(rs RangeSource, lo, hi int, fn func(*chunk) error) error {
	type filled struct {
		c   *chunk
		err error
	}
	n := (hi - lo + r.height - 1) / r.height
	ready := make([]chan filled, n)
	for i := range ready {
		ready[i] = make(chan filled, 1)
	}
	free := make(chan *chunk, r.workers+2)
	for range cap(free) {
		free <- new(chunk)
	}
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for range r.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := <-free
				i := int(next.Add(1)) - 1
				if i >= n {
					free <- c
					return
				}
				var err error
				if !failed.Load() {
					// After a failure the chunk goes back unread, so the
					// caller can drain the remaining indices.
					start := lo + i*r.height
					err = r.fill(rs, c, start, min(start+r.height, hi))
				}
				ready[i] <- filled{c, err}
			}
		}()
	}

	var err error
	for _, ch := range ready {
		f := <-ch
		if err == nil {
			if err = f.err; err == nil {
				err = fn(f.c)
			}
			if err != nil {
				failed.Store(true)
			}
		}
		free <- f.c
	}
	wg.Wait()
	return err
}

// fill range-scans rows [lo, hi) into c and bins them.
func (r chunkReader) fill(rs RangeSource, c *chunk, lo, hi int) error {
	c.reset(lo)
	err := rs.ScanRange(lo, hi, func(_ int, indices []int32, values []float64, label float64) error {
		c.add(indices, values, label)
		return nil
	})
	if err != nil {
		return fmt.Errorf("range scan [%d,%d): %w", lo, hi, err)
	}
	if got := c.rows(); got != hi-lo {
		return fmt.Errorf("range scan [%d,%d) delivered %d rows", lo, hi, got)
	}
	if r.mapper != nil {
		c.bin(r.mapper)
	}
	return nil
}
