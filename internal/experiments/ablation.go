package experiments

import (
	"fmt"
	"io"

	"vf2boost/internal/core"
)

// AblationRow measures one extension beyond the paper (DESIGN.md §3.1b)
// against its baseline on a workload chosen to exercise it.
type AblationRow struct {
	Name        string
	BaselineSec float64
	ExtSec      float64
	Note        string
}

// AblationConfig parameterizes the extension ablations.
type AblationConfig struct {
	KeyBits int
	Seed    int64
}

// DefaultAblation returns the configuration used by cmd/experiments.
func DefaultAblation() AblationConfig { return AblationConfig{KeyBits: 512, Seed: 9} }

// Ablation measures the extension that is still a switch, encrypted
// histogram subtraction, on dense-ish data several layers deep, where
// both children of every split would otherwise be re-accumulated.
func Ablation(ac AblationConfig) ([]AblationRow, error) {
	_, p, err := twoPartySparse(2000, 60, 30, 45, ac.Seed)
	if err != nil {
		return nil, err
	}
	cfg := core.BaselineConfig()
	cfg.Trees = 1
	cfg.MaxDepth = 5
	cfg.KeyBits = ac.KeyBits
	cfg.Workers = 1
	base, err := runFed(p, cfg, 0)
	if err != nil {
		return nil, err
	}
	cfg.HistogramSubtraction = true
	ext, err := runFed(p, cfg, 0)
	if err != nil {
		return nil, err
	}
	return []AblationRow{{
		Name: "HistogramSubtraction", BaselineSec: secs(base.Wall), ExtSec: secs(ext.Wall),
		Note: "build smaller child only; sibling = parent - child",
	}}, nil
}

// PrintAblation renders the extension ablations.
func PrintAblation(w io.Writer, ac AblationConfig, rows []AblationRow) {
	fmt.Fprintf(w, "Extension ablations (beyond the paper); S=%d\n", ac.KeyBits)
	fmt.Fprintf(w, "  %-22s | %9s %9s %8s | %s\n", "extension", "off (s)", "on (s)", "speedup", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s | %9.2f %9.2f %7.2fx | %s\n",
			r.Name, r.BaselineSec, r.ExtSec, r.BaselineSec/r.ExtSec, r.Note)
	}
}
