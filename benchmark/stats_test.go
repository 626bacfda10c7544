package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); !near(got, c.want) {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

// The expected quartiles are what Python's statistics.quantiles(v, n=4)
// prints for the same data; the driver computes spreads with it.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{10, 20, 40}, 10, 40},
		{[]float64{6}, 6, 6},
	} {
		q1, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpread(t *testing.T) {
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 5.5/5.5) {
		t.Errorf("spread = %g, want 1", got)
	}
	if got := spread([]float64{4}); got != 0 {
		t.Errorf("spread of one value = %g, want 0", got)
	}
	if got := spread([]float64{0, 0, 0}); got != 0 {
		t.Errorf("spread around a zero median = %g, want 0", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	asc := make([]float64, 100)
	for i := range asc {
		asc[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got := percentile(asc, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile of nothing = %g", got)
	}
}

// A tail percentile is only reported when at least ten samples lie
// beyond it.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {9, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {50000, 99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
	small := []float64{5, 1, 9, 3, 7}
	if v, p := tail(small); p != 50 || v != 5 {
		t.Errorf("tail of 5 samples = %g at p%g, want the median 5", v, p)
	}
	big := make([]float64, 1000)
	for i := range big {
		big[i] = float64(i + 1)
	}
	if v, p := tail(big); p != 99 || v != 990 {
		t.Errorf("tail of 1000 samples = %g at p%g, want 990 at p99", v, p)
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{Lane: "bench", Label: "parent", Start: 0, End: ms(100), Parent: -1},
		{Lane: "A", Label: "c1", Start: ms(10), End: ms(30), Parent: 0},
		{Lane: "A", Label: "c2 overlaps c1", Start: ms(20), End: ms(50), Parent: 0},
		{Lane: "B", Label: "c3 outlives parent", Start: ms(90), End: ms(120), Parent: 0},
		{Lane: "B", Label: "grandchild", Start: ms(95), End: ms(100), Parent: 3},
		{Lane: "bench", Label: "other root", Start: ms(200), End: ms(210), Parent: -1},
	}
	self := selfTimes(spans)
	// Children cover [10,50] and [90,100] of the parent: 50 ms of 100.
	want := []time.Duration{ms(50), ms(20), ms(30), ms(25), ms(5), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self time of %q = %v, want %v", spans[i].Label, self[i], want[i])
		}
	}
}

func TestLaneBusyCountsOverlapOnce(t *testing.T) {
	spans := []span{
		{Lane: "A", Start: ms(0), End: ms(10)},
		{Lane: "A", Start: ms(5), End: ms(20)},
		{Lane: "A", Start: ms(30), End: ms(40)},
		{Lane: "A", Start: ms(50), End: ms(50)},
		{Lane: "B", Start: ms(0), End: ms(7)},
	}
	busy := laneBusy(spans)
	if busy["A"] != ms(30) || busy["B"] != ms(7) {
		t.Errorf("laneBusy = %v, want A 30ms, B 7ms", busy)
	}
}

func TestSpanLogParentsAndNil(t *testing.T) {
	var none *spanLog
	id, end := none.begin("x", "y", -1)
	end()
	if id != -1 || none.snapshot() != nil {
		t.Error("nil spanLog recorded something")
	}
	l := newSpanLog()
	root, endRoot := l.begin("bench", "root", -1)
	child, endChild := l.begin("probe", "child", root)
	endChild()
	endRoot()
	got := l.snapshot()
	if len(got) != 2 || got[child].Parent != root || got[root].Parent != -1 {
		t.Fatalf("spans = %+v", got)
	}
	if got[root].End < got[child].End || got[child].End < got[child].Start {
		t.Errorf("span times out of order: %+v", got)
	}
}
