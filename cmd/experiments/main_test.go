package main

import (
	"slices"
	"strings"
	"testing"
)

func TestSelection(t *testing.T) {
	for _, tc := range []struct {
		run  string
		want []string // sorted; nil when the list is refused
	}{
		{"all", []string{"fig10", "fig7", "gantt", "table1", "table2", "table4", "table5", "table6"}},
		{"table4", []string{"table4"}},
		{" fig7 , table1 ", []string{"fig7", "table1"}},
		{"all,oocscale", []string{"fig10", "fig7", "gantt", "oocscale", "table1", "table2", "table4", "table5", "table6"}},
		{"objscale", []string{"objscale"}},
		{"table4,ablaton", nil},
		{"table4,ablation", nil},
		{"", nil},
		{"table4,", nil},
	} {
		want, err := selection(tc.run)
		if tc.want == nil {
			if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
				t.Errorf("-run %q: selected %v (%v), want it refused", tc.run, want, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("-run %q: %v", tc.run, err)
			continue
		}
		var got []string
		for name := range want {
			got = append(got, name)
		}
		slices.Sort(got)
		if !slices.Equal(got, tc.want) {
			t.Errorf("-run %q selected %v, want %v", tc.run, got, tc.want)
		}
	}
}

// TestUsageNamesEveryExperiment: the -run usage, which a refusal repeats,
// lists every name -run takes.
func TestUsageNamesEveryExperiment(t *testing.T) {
	for _, name := range append(slices.Concat(suite, optIn), "all") {
		if !strings.Contains(runUsage, name) {
			t.Errorf("-run usage %q omits %s", runUsage, name)
		}
	}
	if _, err := selection("nope"); err == nil || !strings.Contains(err.Error(), runUsage) {
		t.Errorf("refusal %v does not repeat the usage", err)
	}
}
