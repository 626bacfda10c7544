package main

import (
	"math"

	"vf2boost/internal/dataset"
)

// synth is the benchmark's input generator: a replayable stream of rows
// whose every party holds informative columns of graded strength.
//
// The repo's own generators draw which fifth of the columns carries
// signal from the seed. At the few columns these workloads have, that
// decides by coin flip whether Party A or Party B owns the splits, and
// with it the dirty-node count, the decryption count and the model size:
// the same code measured on two seeds differed by a quarter. Here the
// seed only drives the random draws, never the structure, so runs on
// different seeds measure the same regime.
//
// A row is a pure function of (seed, row index), so any range can be
// replayed from any goroutine: synth is an ooc.RangeSource.
type synth struct {
	rows    int
	cols    []float64 // weight per column (0 = noise column)
	density float64   // 1 = dense N(0,1) features, else sparse Uniform(0,1]
	seed    int64
}

// newSynth lays out featA columns for Party A followed by featB for
// Party B. Half of each party's columns (rounded up) are informative,
// with weights falling off as 1/(k+1) and alternating in sign; A's are a
// little stronger than B's so that ties between the parties' best splits
// do not hinge on rounding.
func newSynth(rows, featA, featB int, density float64, seed int64) *synth {
	g := &synth{rows: rows, density: density, seed: seed}
	for _, p := range []struct {
		n     int
		scale float64
	}{{featA, 1.6}, {featB, 1.3}} {
		for k := 0; k < p.n; k++ {
			w := 0.0
			if k < (p.n+1)/2 {
				w = p.scale / float64(k+1)
				if k%2 == 1 {
					w = -w
				}
			}
			g.cols = append(g.cols, w)
		}
	}
	return g
}

// splitmix64 is the row RNG: reseeding it is one assignment, which is
// what makes per-row replay cheap.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 is uniform in (0, 1].
func (s *splitmix64) float64() float64 { return float64(s.next()>>11+1) / (1 << 53) }

// norm is a standard normal draw (Box-Muller).
func (s *splitmix64) norm() float64 {
	return math.Sqrt(-2*math.Log(s.float64())) * math.Cos(2*math.Pi*s.float64())
}

func (g *synth) Cols() int     { return len(g.cols) }
func (g *synth) Labeled() bool { return true }
func (g *synth) Rows() int     { return g.rows }

func (g *synth) Scan(fn func(row int, indices []int32, values []float64, label float64) error) error {
	return g.ScanRange(0, g.rows, fn)
}

func (g *synth) ScanRange(lo, hi int, fn func(row int, indices []int32, values []float64, label float64) error) error {
	idx := make([]int32, 0, len(g.cols))
	vals := make([]float64, 0, len(g.cols))
	for i := lo; i < hi; i++ {
		rng := splitmix64(uint64(g.seed)*0x9e3779b97f4a7c15 ^ uint64(i)*0xd1342543de82ef95)
		rng.next()
		idx, vals = idx[:0], vals[:0]
		z := 0.0
		for j, w := range g.cols {
			var x, mean float64
			if g.density == 1 {
				x = rng.norm()
			} else {
				mean = g.density / 2
				if rng.float64() > g.density {
					z -= w * mean
					continue
				}
				x = rng.float64()
			}
			idx = append(idx, int32(j))
			vals = append(vals, x)
			z += w * (x - mean)
		}
		// Sparse features vary less than dense ones; scale the margin so
		// both regimes give a learnable but noisy label.
		if g.density < 1 {
			z *= 4
		}
		label := 0.0
		if rng.float64() <= 1/(1+math.Exp(-z)) {
			label = 1
		}
		if err := fn(i, idx, vals, label); err != nil {
			return err
		}
	}
	return nil
}

// materialize streams rows [0, n) into an in-memory dataset.
func (g *synth) materialize(n int) (*dataset.Dataset, error) {
	b := dataset.NewBuilder(len(g.cols))
	err := g.ScanRange(0, n, func(_ int, idx []int32, vals []float64, label float64) error {
		return b.AddRow(idx, vals, label)
	})
	return b.Build(), err
}
