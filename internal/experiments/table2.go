package experiments

import (
	"fmt"
	"io"

	"vf2boost/internal/core"
)

// Table2Row is one row of Table 2: the time to build one full decision
// tree under the baseline and with the optimistic node-splitting and
// histogram packing optimizations, at a given feature split between the
// parties.
type Table2Row struct {
	FeatA, FeatB  int
	RatioB        float64 // fraction of splits won by Party B (baseline run)
	DirtyRate     float64 // dirty fraction of optimistic splits
	BaselineSec   float64
	OptimSec      float64
	PackSec       float64
	BothSec       float64
	BytesBaseline int64
	BytesPack     int64
}

// Table2Config parameterizes the sweep: the paper fixes N = 10M and
// sweeps the feature split {40K/10K, 25K/25K, 10K/40K}; here both shrink
// by the same scale.
type Table2Config struct {
	N         int
	Splits    [][2]int
	NNZPerRow int
	KeyBits   int
	MaxDepth  int
	MaxBins   int
	// MinChildHess keeps splits from isolating single instances, which
	// at laptop scale would otherwise produce degenerate tied gains
	// (impossible at the paper's N=10M).
	MinChildHess float64
	WANMbps      float64
	Seed         int64
}

// DefaultTable2 returns the scaled sweep used by cmd/experiments.
func DefaultTable2() Table2Config {
	return Table2Config{
		N:            3000,
		Splits:       [][2]int{{200, 50}, {125, 125}, {50, 200}},
		NNZPerRow:    60,
		KeyBits:      512,
		MaxDepth:     4,
		MaxBins:      10,
		MinChildHess: 1,
		WANMbps:      7,
		Seed:         2,
	}
}

// Table2 measures one-tree training time for the four configurations at
// each feature split.
func Table2(tc Table2Config) ([]Table2Row, error) {
	var rows []Table2Row
	for _, split := range tc.Splits {
		_, parts, err := twoPartySparse(tc.N, split[0], split[1], tc.NNZPerRow, tc.Seed)
		if err != nil {
			return nil, err
		}
		base := core.BaselineConfig()
		base.Trees = 1
		base.MaxDepth = tc.MaxDepth
		base.MaxBins = tc.MaxBins
		base.KeyBits = tc.KeyBits
		base.Split.MinChildHess = tc.MinChildHess
		base.Workers = 1
		// Blaster stays off in all four configurations, as in the paper's
		// Table 2 (it isolates OptimSplit and HistPack).

		row := Table2Row{FeatA: split[0], FeatB: split[1]}

		r, err := runFed(parts, base, tc.WANMbps)
		if err != nil {
			return nil, err
		}
		row.BaselineSec = secs(r.Wall)
		row.BytesBaseline = r.Bytes
		if a, b := r.Stats.SplitsByA(), r.Stats.SplitsByB(); a+b > 0 {
			row.RatioB = float64(b) / float64(a+b)
		}

		variant := func(optim, pack bool) (FedRun, error) {
			cfg := base
			cfg.OptimisticSplit = optim
			cfg.HistogramPacking = pack
			return runFed(parts, cfg, tc.WANMbps)
		}
		ro, err := variant(true, false)
		if err != nil {
			return nil, err
		}
		row.OptimSec = secs(ro.Wall)
		if s := ro.Stats.SplitsByA() + ro.Stats.SplitsByB(); s > 0 {
			row.DirtyRate = float64(ro.Stats.DirtyNodes()) / float64(s)
		}
		rp, err := variant(false, true)
		if err != nil {
			return nil, err
		}
		row.PackSec = secs(rp.Wall)
		row.BytesPack = rp.Bytes
		rb, err := variant(true, true)
		if err != nil {
			return nil, err
		}
		row.BothSec = secs(rb.Wall)

		rows = append(rows, row)
	}
	return rows, nil
}

// PrintTable2 renders the rows in the paper's layout.
func PrintTable2(w io.Writer, tc Table2Config, rows []Table2Row) {
	fmt.Fprintf(w, "Table 2: one-tree training (s); N=%d, S=%d, depth %d, WAN %.0f Mbps\n",
		tc.N, tc.KeyBits, tc.MaxDepth, tc.WANMbps)
	fmt.Fprintf(w, "  %-9s | %7s %6s | %8s | %-16s %-16s %-16s\n",
		"#Feat A/B", "RatioB", "Dirty", "Baseline", "+OptimSplit", "+HistPack", "+Both")
	for _, r := range rows {
		fmt.Fprintf(w, "  %4d/%-4d | %6.1f%% %5.1f%% | %8.2f | %7.2f (%4.2fx)  %7.2f (%4.2fx)  %7.2f (%4.2fx)\n",
			r.FeatA, r.FeatB, 100*r.RatioB, 100*r.DirtyRate, r.BaselineSec,
			r.OptimSec, r.BaselineSec/r.OptimSec,
			r.PackSec, r.BaselineSec/r.PackSec,
			r.BothSec, r.BaselineSec/r.BothSec)
	}
	if len(rows) > 0 && rows[0].BytesPack > 0 {
		fmt.Fprintf(w, "  network per tree: %.1f MiB baseline -> %.1f MiB packed (%.0f%% saved)\n",
			float64(rows[0].BytesBaseline)/(1<<20), float64(rows[0].BytesPack)/(1<<20),
			100*(1-float64(rows[0].BytesPack)/float64(rows[0].BytesBaseline)))
	}
}
