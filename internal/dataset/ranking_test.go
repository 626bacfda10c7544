package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestReadLibSVMRanking(t *testing.T) {
	in := "2 qid:1 1:0.5 3:1\n0 qid:1 2:-1\n1 qid:7 1:2\n1 qid:7 3:0.25\n"
	d, groups, err := ReadLibSVM(strings.NewReader(in), 0)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 4 || len(groups) != 2 || groups[0] != 2 || groups[1] != 2 {
		t.Fatalf("rows %d groups %v, want 4 rows, groups [2 2]", d.Rows(), groups)
	}
	if d.Labels[0] != 2 || d.Labels[2] != 1 {
		t.Errorf("labels %v", d.Labels)
	}
	// Grades are not classes: a -1 label in a qid file must survive, not
	// be normalized to 0.
	if d2, _, err := ReadLibSVM(strings.NewReader("-1 qid:1 1:1\n0 qid:1 2:1\n"), 0); err != nil {
		t.Fatal(err)
	} else if d2.Labels[0] != -1 {
		t.Errorf("ranking label -1 was normalized to %g", d2.Labels[0])
	}
	// A file without qid tokens has no groups.
	if _, g, err := ReadLibSVM(strings.NewReader("1 1:1\n-1 2:1\n"), 0); err != nil || g != nil {
		t.Errorf("plain file: groups %v, err %v; want nil, nil", g, err)
	}
	for name, bad := range map[string]string{
		// A qid reappearing after another group breaks group contiguity.
		"reappearing qid": "1 qid:1 1:1\n1 qid:2 1:1\n1 qid:1 1:1\n",
		// Either every row names its query or none does.
		"plain row after qid rows": "1 qid:1 1:1\n1 1:1\n",
		"qid row after plain rows": "1 1:1\n0 1:2\n1 qid:1 1:1\n",
	} {
		if _, _, err := ReadLibSVM(strings.NewReader(bad), 0); err == nil {
			t.Errorf("%s accepted", name)
		}
		// The streaming reader of the out-of-core path keeps the same rules.
		noop := func([]int32, []float64, float64, int64) error { return nil }
		if _, _, err := ScanLibSVM(strings.NewReader(bad), 0, noop); err == nil {
			t.Errorf("%s accepted by ScanLibSVM", name)
		}
	}
}

func TestRankingWriteReadRoundTrip(t *testing.T) {
	d, groups, err := GenerateRanking(RankGenOptions{Groups: 5, GroupSize: 4, Cols: 6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	// With groups the file carries qid tokens and reads back the same
	// groups; with nil groups it carries none and reads back nil.
	for _, g := range [][]int{groups, nil} {
		var buf bytes.Buffer
		if err := WriteLibSVM(&buf, d, g); err != nil {
			t.Fatal(err)
		}
		if hasQid := strings.Contains(buf.String(), "qid:"); hasQid != (g != nil) {
			t.Fatalf("groups %v: file has qid tokens = %v", g, hasQid)
		}
		got, gotGroups, err := ReadLibSVM(&buf, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != d.Rows() || !reflect.DeepEqual(gotGroups, g) {
			t.Fatalf("round trip: %d rows, groups %v; want %d, %v", got.Rows(), gotGroups, d.Rows(), g)
		}
		for i := 0; i < d.Rows(); i++ {
			if got.Labels[i] != d.Labels[i] {
				t.Fatalf("label %d = %g, want %g", i, got.Labels[i], d.Labels[i])
			}
			ac, av := d.Row(i)
			bc, bv := got.Row(i)
			if len(ac) != len(bc) {
				t.Fatalf("row %d width %d, want %d", i, len(bc), len(ac))
			}
			for k := range ac {
				if ac[k] != bc[k] || av[k] != bv[k] {
					t.Fatalf("row %d entry %d mismatch", i, k)
				}
			}
		}
	}
	// Mis-sized groups must be rejected before any bytes are written.
	var buf bytes.Buffer
	if err := WriteLibSVM(&buf, d, groups[:len(groups)-1]); err == nil || buf.Len() != 0 {
		t.Errorf("short group cover: err %v, %d bytes written", err, buf.Len())
	}
}

func TestGenerateMulticlassShape(t *testing.T) {
	d, err := GenerateMulticlass(MultiGenOptions{Rows: 200, Cols: 5, Classes: 4, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]int{}
	for _, y := range d.Labels {
		if y < 0 || y > 3 || y != float64(int(y)) {
			t.Fatalf("label %g outside class range", y)
		}
		seen[y]++
	}
	if len(seen) != 4 {
		t.Errorf("only %d of 4 classes appear in 200 rows", len(seen))
	}
	if _, err := GenerateMulticlass(MultiGenOptions{Rows: 10, Cols: 2, Classes: 1}); err == nil {
		t.Error("single-class generator accepted")
	}
}
