package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for an empty sample.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (the "exclusive" method: position
// i·(len+1)/4 with linear interpolation, the interval clamped to the
// sample so tiny samples extrapolate), which is how the driver computes
// a metric's spread. Fewer than two values have no quartiles.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(i int) float64 {
		const n = 4
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := float64(i*(ld+1) - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median: the
// run-to-run noise measure the regression verdicts are judged against.
func spread(v []float64) float64 {
	m := median(v)
	if len(v) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(v)
	return (q3 - q1) / math.Abs(m)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// an ascending sample.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	return asc[rank-1]
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// tailPercentile picks the highest of p99, p90 and p50 that still has at
// least minBeyond samples beyond it in a sample of n; a sample too small
// for any of them falls back to the median.
func tailPercentile(n int) float64 {
	for _, p := range []float64{99, 90} {
		if float64(n)*(100-p)/100 >= minBeyond {
			return p
		}
	}
	return 50
}

// tail returns the tail latency of a sample under the tailPercentile
// rule, together with the percentile it used.
func tail(v []float64) (value, p float64) {
	p = tailPercentile(len(v))
	if p == 50 {
		return median(v), p
	}
	return percentile(sorted(v), p), p
}
