package serve

import (
	"math"
	"testing"
)

// TestLatencyQuantilesWithinTenPercent: a constant 10.9 ms stream — a WAN
// round trip on a 5 ms link — reads back as 10.9 ms within 10 % at p50 and
// p99, however the bucket edges fall around it.
func TestLatencyQuantilesWithinTenPercent(t *testing.T) {
	const rtt = 10.9
	h := NewHistogram(LatencyBounds())
	for i := 0; i < 1000; i++ {
		h.Observe(rtt)
	}
	for _, q := range []float64{0.5, 0.99} {
		if got := h.Quantile(q); math.Abs(got-rtt) > 0.1*rtt {
			t.Errorf("p%g = %.2f ms for a constant %.1f ms stream, want within 10%%", 100*q, got, rtt)
		}
	}
}
