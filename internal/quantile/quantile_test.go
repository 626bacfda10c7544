package quantile

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewValidatesEps(t *testing.T) {
	for _, eps := range []float64{0, -0.1, 1, 1.5} {
		if _, err := New(eps); err == nil {
			t.Errorf("New(%g) succeeded, want error", eps)
		}
	}
	if _, err := New(0.01); err != nil {
		t.Errorf("New(0.01): %v", err)
	}
}

func TestEmptySketch(t *testing.T) {
	s := MustNew(0.01)
	if got := s.Query(0.5); got != 0 {
		t.Errorf("empty Query = %g, want 0", got)
	}
	if got := s.Quantiles(10); got != nil {
		t.Errorf("empty Quantiles = %v, want nil", got)
	}
	if s.Count() != 0 {
		t.Errorf("empty Count = %d", s.Count())
	}
}

func TestExactEndpoints(t *testing.T) {
	s := MustNew(0.01)
	for i := 1; i <= 1000; i++ {
		s.Add(float64(i))
	}
	if got := s.Query(0); got != 1 {
		t.Errorf("Query(0) = %g, want 1 (exact min)", got)
	}
	if got := s.Query(1); got != 1000 {
		t.Errorf("Query(1) = %g, want 1000 (exact max)", got)
	}
}

// rankOf returns the rank (1-based) of v within sorted data.
func rankOf(sorted []float64, v float64) int {
	return sort.SearchFloat64s(sorted, v) + 1
}

func TestErrorBoundUniform(t *testing.T) {
	const n = 20000
	const eps = 0.01
	rng := rand.New(rand.NewSource(42))
	s := MustNew(eps)
	data := make([]float64, n)
	for i := range data {
		data[i] = rng.Float64()
		s.Add(data[i])
	}
	sort.Float64s(data)
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Query(q)
		r := rankOf(data, got)
		want := int(math.Ceil(q * n))
		if d := math.Abs(float64(r - want)); d > 2*eps*n {
			t.Errorf("q=%g: rank error %g exceeds 2εn=%g", q, d, 2*eps*n)
		}
	}
}

func TestErrorBoundPropertySkewed(t *testing.T) {
	const eps = 0.02
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2000 + rng.Intn(3000)
		s := MustNew(eps)
		data := make([]float64, n)
		for i := range data {
			// Heavily skewed: exponential-ish with duplicates.
			data[i] = math.Floor(rng.ExpFloat64() * 10)
			s.Add(data[i])
		}
		sort.Float64s(data)
		for _, q := range []float64{0.1, 0.5, 0.9} {
			got := s.Query(q)
			// With duplicates the returned value covers a rank range;
			// accept if any index holding got is within bound.
			lo := sort.SearchFloat64s(data, got) + 1
			hi := sort.Search(len(data), func(i int) bool { return data[i] > got })
			want := int(math.Ceil(q * float64(n)))
			dist := 0
			if want < lo {
				dist = lo - want
			} else if want > hi {
				dist = want - hi
			}
			if float64(dist) > 2*eps*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestSpaceStaysSublinear(t *testing.T) {
	s := MustNew(0.01)
	for i := 0; i < 100000; i++ {
		s.Add(rand.Float64())
	}
	if sz := s.Size(); sz > 3000 {
		t.Errorf("sketch retained %d tuples for 100k inserts at eps=0.01; compression not effective", sz)
	}
}

func TestQuantilesMonotoneAndDeduped(t *testing.T) {
	s := MustNew(0.01)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		s.Add(float64(rng.Intn(5))) // only 5 distinct values
	}
	cuts := s.Quantiles(20)
	if len(cuts) > 5 {
		t.Errorf("got %d cuts from 5 distinct values", len(cuts))
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Errorf("cuts not strictly increasing: %v", cuts)
		}
	}
}

func TestExact(t *testing.T) {
	vals := []float64{5, 1, 3, 2, 4}
	cuts := Exact(vals, 5)
	want := []float64{2, 3, 4, 5}
	if len(cuts) != len(want) {
		t.Fatalf("Exact = %v, want %v", cuts, want)
	}
	for i := range want {
		if cuts[i] != want[i] {
			t.Fatalf("Exact = %v, want %v", cuts, want)
		}
	}
	if got := Exact(nil, 5); got != nil {
		t.Errorf("Exact(nil) = %v", got)
	}
	if got := Exact(vals, 1); got != nil {
		t.Errorf("Exact(k=1) = %v", got)
	}
	// Input must not be mutated.
	if vals[0] != 5 {
		t.Error("Exact mutated its input")
	}
}

func TestExactDedup(t *testing.T) {
	vals := []float64{1, 1, 1, 1, 2}
	cuts := Exact(vals, 5)
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			t.Errorf("Exact cuts not strictly increasing: %v", cuts)
		}
	}
}

func BenchmarkSketchAdd(b *testing.B) {
	s := MustNew(0.01)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(rng.Float64())
	}
}
