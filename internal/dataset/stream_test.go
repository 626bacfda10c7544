package dataset

import (
	"reflect"
	"strings"
	"testing"
)

type rowCopy struct {
	idx   []int32
	vals  []float64
	label float64
}

func collect(t *testing.T, g *StreamGenerator) []rowCopy {
	t.Helper()
	var rows []rowCopy
	err := g.Scan(func(row int, indices []int32, values []float64, label float64) error {
		rows = append(rows, rowCopy{
			idx:   append([]int32(nil), indices...),
			vals:  append([]float64(nil), values...),
			label: label,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestStreamGeneratorReplaysIdentically(t *testing.T) {
	g, err := NewStreamGenerator(GenOptions{Rows: 300, Cols: 20, Density: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	a, b := collect(t, g), collect(t, g)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two scans of the same generator differ")
	}
	// A second generator with the same options must also agree.
	g2, err := NewStreamGenerator(GenOptions{Rows: 300, Cols: 20, Density: 0.3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, collect(t, g2)) {
		t.Fatal("fresh generator with same options differs")
	}
}

func TestStreamGeneratorRowShape(t *testing.T) {
	g, err := NewStreamGenerator(GenOptions{Rows: 100, Cols: 10, Density: 0.4, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ones := 0
	err = g.Scan(func(row int, indices []int32, values []float64, label float64) error {
		for k := 1; k < len(indices); k++ {
			if indices[k] <= indices[k-1] {
				t.Fatalf("row %d indices not strictly increasing: %v", row, indices)
			}
		}
		for k, j := range indices {
			if j < 0 || j >= 10 {
				t.Fatalf("row %d column %d out of range", row, j)
			}
			if values[k] == 0 {
				t.Fatalf("row %d stores an explicit zero", row)
			}
		}
		if label != 0 && label != 1 {
			t.Fatalf("row %d label %g not binary", row, label)
		}
		if label == 1 {
			ones++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if ones == 0 || ones == 100 {
		t.Fatalf("degenerate label distribution: %d/100 positive", ones)
	}
}

func TestScanLibSVMCallback(t *testing.T) {
	in := "1 1:0.5 3:2\n\n# comment\n-1 2:1.5\n"
	var rows []rowCopy
	n, maxCols, err := ScanLibSVM(strings.NewReader(in), 0, func(indices []int32, values []float64, label float64, qid int64) error {
		if qid != -1 {
			t.Errorf("row without a qid token delivered qid %d", qid)
		}
		rows = append(rows, rowCopy{
			idx:   append([]int32(nil), indices...),
			vals:  append([]float64(nil), values...),
			label: label,
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 || maxCols != 3 {
		t.Fatalf("got %d rows, %d cols", n, maxCols)
	}
	want := []rowCopy{
		{idx: []int32{0, 2}, vals: []float64{0.5, 2}, label: 1},
		{idx: []int32{1}, vals: []float64{1.5}, label: 0}, // -1 normalizes to 0
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("rows %+v, want %+v", rows, want)
	}
}
