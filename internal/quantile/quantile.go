// Package quantile provides an ε-approximate streaming quantile summary in
// the style of Greenwald & Khanna (SIGMOD 2001), the standard tool for
// proposing histogram split candidates in GBDT systems (XGBoost's "approx"
// mode, DimBoost, and VF²Boost's per-feature binning all rely on
// percentile sketches).
//
// The summary maintains tuples (v, g, Δ) where g is the gap between the
// minimum ranks of consecutive tuples and Δ bounds the rank uncertainty.
// Querying rank r returns a value whose true rank is within εn of r.
package quantile

import (
	"errors"
	"math"
	"sort"
)

// Sketch is a single-stream GK summary. It is not safe for concurrent use.
type Sketch struct {
	eps     float64
	n       int
	entries []entry
	// buf batches inserts so that compression runs every 1/(2ε) items.
	buf []float64
}

type entry struct {
	v     float64
	g     int
	delta int
}

// New creates a sketch with rank error bound eps (0 < eps < 1).
func New(eps float64) (*Sketch, error) {
	if eps <= 0 || eps >= 1 {
		return nil, errors.New("quantile: eps must be in (0, 1)")
	}
	return &Sketch{eps: eps}, nil
}

// MustNew is New for static epsilons.
func MustNew(eps float64) *Sketch {
	s, err := New(eps)
	if err != nil {
		panic(err)
	}
	return s
}

// Count returns the number of observed values.
func (s *Sketch) Count() int { return s.n + len(s.buf) }

// Add observes one value.
func (s *Sketch) Add(v float64) {
	s.buf = append(s.buf, v)
	if len(s.buf) >= s.flushThreshold() {
		s.flush()
	}
}

func (s *Sketch) flushThreshold() int {
	t := int(1.0 / (2.0 * s.eps))
	if t < 1 {
		t = 1
	}
	return t
}

// flush merges the buffered values into the summary and compresses.
func (s *Sketch) flush() {
	if len(s.buf) == 0 {
		return
	}
	sort.Float64s(s.buf)
	merged := make([]entry, 0, len(s.entries)+len(s.buf))
	bi := 0
	for _, e := range s.entries {
		for bi < len(s.buf) && s.buf[bi] <= e.v {
			merged = append(merged, s.newEntry(s.buf[bi], len(merged), cap(merged)))
			s.n++
			bi++
		}
		merged = append(merged, e)
	}
	for bi < len(s.buf) {
		merged = append(merged, s.newEntry(s.buf[bi], len(merged), cap(merged)))
		s.n++
		bi++
	}
	s.entries = merged
	s.buf = s.buf[:0]
	s.compress()
}

// newEntry builds an inserted tuple; boundary tuples get Δ=0 so min and
// max stay exact.
func (s *Sketch) newEntry(v float64, pos, total int) entry {
	delta := int(math.Floor(2 * s.eps * float64(s.n)))
	if pos == 0 || s.n == 0 {
		delta = 0
	}
	return entry{v: v, g: 1, delta: delta}
}

// compress merges adjacent tuples while the GK invariant
// g_i + g_{i+1} + Δ_{i+1} <= 2εn holds.
func (s *Sketch) compress() {
	if len(s.entries) < 3 {
		return
	}
	budget := int(math.Floor(2 * s.eps * float64(s.n)))
	out := s.entries[:0]
	out = append(out, s.entries[0])
	for i := 1; i < len(s.entries); i++ {
		e := s.entries[i]
		last := &out[len(out)-1]
		// Never merge away the first or last tuple (exact min/max).
		if len(out) > 1 && i < len(s.entries) && last.g+e.g+e.delta <= budget && i != len(s.entries)-1 {
			e.g += last.g
			out[len(out)-1] = e
		} else {
			out = append(out, e)
		}
	}
	s.entries = out
}

// Query returns a value whose rank is within εn of rank ceil(q·n), for
// q in [0, 1]. Querying an empty sketch returns 0.
func (s *Sketch) Query(q float64) float64 {
	s.flush()
	if len(s.entries) == 0 {
		return 0
	}
	if q <= 0 {
		return s.entries[0].v
	}
	if q >= 1 {
		return s.entries[len(s.entries)-1].v
	}
	r := int(math.Ceil(q * float64(s.n)))
	e := int(math.Floor(s.eps * float64(s.n)))
	rmin := 0
	for i, ent := range s.entries {
		rmin += ent.g
		if rmin+ent.delta > r+e {
			if i == 0 {
				return ent.v
			}
			return s.entries[i-1].v
		}
	}
	return s.entries[len(s.entries)-1].v
}

// Quantiles returns the k-1 interior cut points at ranks i/k, suitable as
// histogram bin boundaries for k bins. Duplicate cuts are removed, so the
// result may be shorter than k-1 for skewed data.
func (s *Sketch) Quantiles(k int) []float64 {
	if k < 2 || s.Count() == 0 {
		return nil
	}
	cuts := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		c := s.Query(float64(i) / float64(k))
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}

// Size returns the number of tuples retained, for space accounting.
func (s *Sketch) Size() int {
	s.flush()
	return len(s.entries)
}

// Exact returns the exact k-1 interior quantile cut points of values,
// used when the column is small enough to sort outright. values is not
// modified. Duplicate cuts are removed.
func Exact(values []float64, k int) []float64 {
	return ExactInPlace(append([]float64(nil), values...), k)
}

// ExactInPlace is Exact for a caller that owns values: it sorts them in
// place instead of copying them first.
func ExactInPlace(values []float64, k int) []float64 {
	if len(values) == 0 || k < 2 {
		return nil
	}
	sorted := values
	sort.Float64s(sorted)
	cuts := make([]float64, 0, k-1)
	for i := 1; i < k; i++ {
		idx := i * len(sorted) / k
		if idx >= len(sorted) {
			idx = len(sorted) - 1
		}
		c := sorted[idx]
		if len(cuts) == 0 || c > cuts[len(cuts)-1] {
			cuts = append(cuts, c)
		}
	}
	return cuts
}
