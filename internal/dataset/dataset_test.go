package dataset

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func small(t *testing.T) *Dataset {
	t.Helper()
	b := NewBuilder(4)
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(b.AddRow([]int32{0, 2}, []float64{1.5, 2.5}, 1))
	must(b.AddRow([]int32{1}, []float64{-3}, 0))
	must(b.AddRow([]int32{0, 1, 2, 3}, []float64{4, 5, 6, 7}, 1))
	return b.Build()
}

func TestBuilderBasics(t *testing.T) {
	d := small(t)
	if d.Rows() != 3 || d.Cols() != 4 {
		t.Fatalf("shape %dx%d, want 3x4", d.Rows(), d.Cols())
	}
	if d.NNZ() != 7 {
		t.Errorf("NNZ = %d, want 7", d.NNZ())
	}
	if got := d.Density(); math.Abs(got-7.0/12.0) > 1e-12 {
		t.Errorf("Density = %g", got)
	}
	if d.Get(0, 2) != 2.5 || d.Get(0, 1) != 0 || d.Get(2, 3) != 7 {
		t.Error("Get returned wrong values")
	}
	if len(d.Labels) != 3 || d.Labels[1] != 0 {
		t.Errorf("labels = %v", d.Labels)
	}
}

func TestBuilderSortsAndValidates(t *testing.T) {
	b := NewBuilder(3)
	if err := b.AddRow([]int32{2, 0}, []float64{9, 8}, 0); err != nil {
		t.Fatal(err)
	}
	d := b.Build()
	cols, vals := d.Row(0)
	if cols[0] != 0 || vals[0] != 8 || cols[1] != 2 || vals[1] != 9 {
		t.Errorf("row not sorted: %v %v", cols, vals)
	}

	b2 := NewBuilder(3)
	if err := b2.AddRow([]int32{3}, []float64{1}, 0); err == nil {
		t.Error("out-of-range column accepted")
	}
	if err := b2.AddRow([]int32{1, 1}, []float64{1, 2}, 0); err == nil {
		t.Error("duplicate column accepted")
	}
	if err := b2.AddRow([]int32{1}, []float64{1, 2}, 0); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestColumnView(t *testing.T) {
	d := small(t)
	rows, vals := d.Column(0)
	if len(rows) != 2 || rows[0] != 0 || rows[1] != 2 || vals[0] != 1.5 || vals[1] != 4 {
		t.Errorf("Column(0) = %v %v", rows, vals)
	}
	if got := d.ColumnValues(3); len(got) != 1 || got[0] != 7 {
		t.Errorf("ColumnValues(3) = %v", got)
	}
}

func TestSubColumnsDropsLabels(t *testing.T) {
	d := small(t)
	a := d.SubColumns([]int{0, 1}, false)
	if a.Labels != nil {
		t.Error("passive-party shard carries labels")
	}
	if a.Cols() != 2 || a.Get(2, 0) != 4 || a.Get(2, 1) != 5 {
		t.Error("SubColumns values wrong")
	}
	bPart := d.SubColumns([]int{2, 3}, true)
	if bPart.Labels == nil {
		t.Error("label party lost labels")
	}
	if bPart.Get(0, 0) != 2.5 {
		t.Error("SubColumns remap wrong")
	}
}

func TestVerticalSplitAndJoinRoundTrip(t *testing.T) {
	d, err := Generate(GenOptions{Rows: 50, Cols: 10, Density: 0.4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{6, 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Labels != nil || parts[1].Labels == nil {
		t.Fatal("label placement wrong")
	}
	joined, err := JoinColumns(parts...)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < d.Rows(); i++ {
		for j := 0; j < d.Cols(); j++ {
			if joined.Get(i, j) != d.Get(i, j) {
				t.Fatalf("join mismatch at (%d,%d)", i, j)
			}
		}
		if joined.Labels[i] != d.Labels[i] {
			t.Fatalf("label mismatch at %d", i)
		}
	}
	if _, err := d.VerticalSplit([]int{3, 3}, 0); err == nil {
		t.Error("bad split counts accepted")
	}
}

func TestSubRowsAndTrainValidSplit(t *testing.T) {
	d := small(t)
	sub := d.SubRows([]int{2, 0})
	if sub.Rows() != 2 || sub.Get(0, 3) != 7 || sub.Labels[1] != 1 {
		t.Error("SubRows wrong")
	}
	big, _ := Generate(GenOptions{Rows: 100, Cols: 5, Density: 1, Dense: true, Seed: 1})
	tr, va := big.TrainValidSplit(0.8, 42)
	if tr.Rows() != 80 || va.Rows() != 20 {
		t.Errorf("split sizes %d/%d", tr.Rows(), va.Rows())
	}
	tr2, _ := big.TrainValidSplit(0.8, 42)
	if tr.Get(0, 0) != tr2.Get(0, 0) {
		t.Error("TrainValidSplit not deterministic")
	}
}

func TestGenerateShapes(t *testing.T) {
	d, err := Generate(GenOptions{Rows: 200, Cols: 50, Density: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 200 || d.Cols() != 50 {
		t.Fatalf("shape %dx%d", d.Rows(), d.Cols())
	}
	if got := d.Density(); math.Abs(got-0.1) > 0.02 {
		t.Errorf("density %g, want ~0.1", got)
	}
	// Sparse generated values must be positive (split semantics).
	for i := 0; i < d.Rows(); i++ {
		_, vals := d.Row(i)
		for _, v := range vals {
			if v <= 0 {
				t.Fatal("sparse generator emitted non-positive value")
			}
		}
	}
	// Labels must contain both classes.
	ones := 0
	for _, y := range d.Labels {
		if y == 1 {
			ones++
		}
	}
	if ones == 0 || ones == d.Rows() {
		t.Errorf("degenerate labels: %d/%d positive", ones, d.Rows())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	o := GenOptions{Rows: 30, Cols: 10, Density: 0.3, Seed: 99}
	d1, _ := Generate(o)
	d2, _ := Generate(o)
	for i := 0; i < d1.Rows(); i++ {
		for j := 0; j < d1.Cols(); j++ {
			if d1.Get(i, j) != d2.Get(i, j) {
				t.Fatal("generator not deterministic")
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(GenOptions{Rows: 0, Cols: 5, Density: 0.5}); err == nil {
		t.Error("zero rows accepted")
	}
	if _, err := Generate(GenOptions{Rows: 5, Cols: 5, Density: 0}); err == nil {
		t.Error("zero density accepted")
	}
	if _, err := Generate(GenOptions{Rows: 5, Cols: 5, Density: 1.5}); err == nil {
		t.Error("density > 1 accepted")
	}
}

func TestPresets(t *testing.T) {
	if len(Presets) != 7 {
		t.Fatalf("want the 7 Table 3 presets, got %d", len(Presets))
	}
	p, ok := PresetByName("rcv1")
	if !ok {
		t.Fatal("rcv1 preset missing")
	}
	opts, parts := p.Options(1000, 7)
	if opts.Rows < 64 || len(parts) != 2 {
		t.Errorf("scaled options: %+v parts=%v", opts, parts)
	}
	total := 0
	for _, c := range parts {
		total += c
	}
	if total != opts.Cols {
		t.Errorf("party features %v do not sum to cols %d", parts, opts.Cols)
	}
	d, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != opts.Rows {
		t.Error("preset generation failed")
	}
	if _, ok := PresetByName("nope"); ok {
		t.Error("unknown preset found")
	}
}

func TestLibSVMRoundTrip(t *testing.T) {
	d, _ := Generate(GenOptions{Rows: 40, Cols: 12, Density: 0.3, Seed: 3})
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, d, nil); err != nil {
		t.Fatal(err)
	}
	back, _, err := ReadLibSVM(&buf, d.Cols())
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != d.Rows() || back.Cols() != d.Cols() {
		t.Fatalf("shape changed: %dx%d", back.Rows(), back.Cols())
	}
	for i := 0; i < d.Rows(); i++ {
		if back.Labels[i] != d.Labels[i] {
			t.Fatalf("label %d changed", i)
		}
		for j := 0; j < d.Cols(); j++ {
			if math.Abs(back.Get(i, j)-d.Get(i, j)) > 1e-9 {
				t.Fatalf("value (%d,%d) changed", i, j)
			}
		}
	}
}

func TestLibSVMParsing(t *testing.T) {
	in := "+1 1:0.5 3:2\n-1 2:1\n\n# comment\n0 1:7\n"
	d, _, err := ReadLibSVM(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 3 || d.Cols() != 3 {
		t.Fatalf("shape %dx%d", d.Rows(), d.Cols())
	}
	if d.Labels[0] != 1 || d.Labels[1] != 0 || d.Labels[2] != 0 {
		t.Errorf("labels = %v (want -1 normalized to 0)", d.Labels)
	}
	if d.Get(0, 0) != 0.5 || d.Get(1, 1) != 1 {
		t.Error("values wrong")
	}

	for _, bad := range []string{"x 1:1\n", "1 foo\n", "1 0:1\n", "1 1:zzz\n"} {
		if _, _, err := ReadLibSVM(strings.NewReader(bad), 0); err == nil {
			t.Errorf("parsed invalid input %q", bad)
		}
	}
	if _, _, err := ReadLibSVM(strings.NewReader(""), 0); err == nil {
		t.Error("empty input accepted")
	}
}

func TestFromDense(t *testing.T) {
	d, err := FromDense([][]float64{{1, 0}, {0, 2}}, []float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if d.Density() != 1 {
		t.Errorf("dense density = %g, want 1 (zeros stored)", d.Density())
	}
	if _, err := FromDense([][]float64{{1}, {1, 2}}, nil); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := FromDense(nil, nil); err == nil {
		t.Error("empty matrix accepted")
	}
}

func TestGetPropertyAgainstRow(t *testing.T) {
	d, _ := Generate(GenOptions{Rows: 60, Cols: 20, Density: 0.25, Seed: 17})
	f := func(i, j uint8) bool {
		r, c := int(i)%d.Rows(), int(j)%d.Cols()
		cols, vals := d.Row(r)
		want := 0.0
		for k, cc := range cols {
			if int(cc) == c {
				want = vals[k]
			}
		}
		return d.Get(r, c) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
