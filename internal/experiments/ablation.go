package experiments

import (
	"fmt"
	"io"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
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

// Ablation measures the three extensions: encrypted histogram
// subtraction (dense two-child regime), adaptive packing (sparse deep
// regime where a slot for every bin ships mostly empty ciphertexts), and
// adaptive optimism (feature-rich passive party where pure optimism
// thrashes).
func Ablation(ac AblationConfig) ([]AblationRow, error) {
	var rows []AblationRow

	run := func(parts parts2, cfg core.Config) (float64, *core.Stats, error) {
		r, err := runFed(parts, cfg, 0)
		if err != nil {
			return 0, nil, err
		}
		return secs(r.Wall), r.Stats, nil
	}

	// 1. Histogram subtraction: dense-ish data, several layers, so both
	// children of every split would otherwise be re-accumulated.
	{
		_, p, err := twoPartySparse(2000, 60, 30, 45, ac.Seed)
		if err != nil {
			return nil, err
		}
		cfg := core.BaselineConfig()
		cfg.Trees = 1
		cfg.MaxDepth = 5
		cfg.KeyBits = ac.KeyBits
		cfg.Workers = 1
		base, _, err := run(p, cfg)
		if err != nil {
			return nil, err
		}
		cfg.HistogramSubtraction = true
		ext, _, err := run(p, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "HistogramSubtraction", BaselineSec: base, ExtSec: ext,
			Note: "build smaller child only; sibling = parent - child",
		})
	}

	// 2. Adaptive packing: very sparse features at depth, where packing
	// every feature costs more decrypts than the occupied bins.
	{
		_, p, err := twoPartySparse(1200, 150, 30, 10, ac.Seed+1)
		if err != nil {
			return nil, err
		}
		cfg := core.BaselineConfig()
		cfg.Trees = 1
		cfg.MaxDepth = 4
		cfg.KeyBits = ac.KeyBits
		cfg.Workers = 1
		cfg.HistogramPacking = true
		cfg.AdaptivePacking = false
		base, _, err := run(p, cfg)
		if err != nil {
			return nil, err
		}
		cfg.AdaptivePacking = true
		ext, _, err := run(p, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "AdaptivePacking", BaselineSec: base, ExtSec: ext,
			Note: "skip packing for features with few occupied bins",
		})
	}

	// 3. Adaptive optimism: passive party owns most features, so pure
	// optimism rolls back most splits.
	{
		_, p, err := twoPartySparse(1500, 120, 20, 30, ac.Seed+2)
		if err != nil {
			return nil, err
		}
		cfg := core.BaselineConfig()
		cfg.Trees = 4
		cfg.MaxDepth = 4
		cfg.KeyBits = ac.KeyBits
		cfg.Workers = 1
		cfg.OptimisticSplit = true
		cfg.AdaptiveOptimism = false
		base, stBase, err := run(p, cfg)
		if err != nil {
			return nil, err
		}
		cfg.AdaptiveOptimism = true
		ext, stExt, err := run(p, cfg)
		if err != nil {
			return nil, err
		}
		rows = append(rows, AblationRow{
			Name: "AdaptiveOptimism", BaselineSec: base, ExtSec: ext,
			Note: fmt.Sprintf("dirty nodes %d -> %d over 4 trees",
				stBase.DirtyNodes(), stExt.DirtyNodes()),
		})
	}
	return rows, nil
}

// parts2 aliases the session input for readability.
type parts2 = []*dataset.Dataset

// PrintAblation renders the extension ablations.
func PrintAblation(w io.Writer, ac AblationConfig, rows []AblationRow) {
	fmt.Fprintf(w, "Extension ablations (beyond the paper); S=%d\n", ac.KeyBits)
	fmt.Fprintf(w, "  %-22s | %9s %9s %8s | %s\n", "extension", "off (s)", "on (s)", "speedup", "note")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s | %9.2f %9.2f %7.2fx | %s\n",
			r.Name, r.BaselineSec, r.ExtSec, r.BaselineSec/r.ExtSec, r.Note)
	}
}
