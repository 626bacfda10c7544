package dataset

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadLibSVM checks the parser never panics and that everything it
// accepts survives a write/read round trip.
func FuzzReadLibSVM(f *testing.F) {
	f.Add("1 1:0.5 3:2\n-1 2:1\n")
	f.Add("0 1:1e300\n")
	f.Add("# comment\n+1 5:0.001\n")
	f.Add("1 1:nan\n")
	f.Add("")
	f.Add("1 0:1\n")
	f.Add("1 1:1 1:2\n")
	f.Add("2 qid:3 1:1\n-1 qid:3 2:1\n0 qid:1 1:2\n")
	f.Add("1 qid:1 1:1\n1 1:1\n")
	f.Fuzz(func(t *testing.T, input string) {
		d, groups, err := ReadLibSVM(strings.NewReader(input), 0)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteLibSVM(&buf, d, groups); err != nil {
			t.Fatalf("accepted dataset failed to serialize: %v", err)
		}
		back, backGroups, err := ReadLibSVM(&buf, d.Cols())
		if err != nil {
			t.Fatalf("round trip failed to parse: %v", err)
		}
		if back.Rows() != d.Rows() || back.Cols() != d.Cols() {
			t.Fatalf("round trip changed shape: %dx%d -> %dx%d",
				d.Rows(), d.Cols(), back.Rows(), back.Cols())
		}
		if !reflect.DeepEqual(backGroups, groups) {
			t.Fatalf("round trip changed groups: %v -> %v", groups, backGroups)
		}
	})
}
