// Command experiments regenerates the tables and figures of the VF²Boost
// paper's evaluation (Section 6) at laptop scale and prints them in the
// paper's layout. See EXPERIMENTS.md for the scaling substitutions and
// the paper-vs-measured comparison.
//
// Usage:
//
//	experiments -run all
//	experiments -run fig7,table1,table2
//	experiments -run fig10 -preset a9a
//	experiments -run table4 -scale 2000 -keybits 256
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"vf2boost/internal/experiments"
)

// suite is what -run all selects, in run order.
var suite = []string{"fig7", "table1", "table2", "fig10", "table4", "table5", "table6", "gantt"}

// optIn are the experiments only -run by name selects: oocscale streams
// millions of rows to disk, and objscale's class-count sweep over real
// Paillier takes minutes at the default key size.
var optIn = []string{"oocscale", "objscale"}

// runUsage says what -run takes.
var runUsage = "comma-separated experiments: " + strings.Join(slices.Concat(suite, optIn), ",") +
	", or all (every one but " + strings.Join(optIn, " and ") + ")"

// selection parses a -run list into the experiments it selects, refusing
// the whole list if one name is not an experiment.
func selection(run string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, name := range strings.Split(run, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "all":
			for _, n := range suite {
				want[n] = true
			}
		case slices.Contains(suite, name) || slices.Contains(optIn, name):
			want[name] = true
		default:
			return nil, fmt.Errorf("unknown experiment %q; -run takes %s", name, runUsage)
		}
	}
	return want, nil
}

func main() {
	log.SetFlags(0)
	var (
		run          = flag.String("run", "all", runUsage)
		preset       = flag.String("preset", "census", "preset for fig10 (census or a9a)")
		scale        = flag.Float64("scale", 0, "override dataset scale divisor (0 = per-experiment default)")
		keyBits      = flag.Int("keybits", 512, "Paillier modulus size S")
		trees        = flag.Int("trees", 0, "override tree count (0 = per-experiment default)")
		oocRows      = flag.Int("ooc-rows", 0, "override oocscale row count (0 = default)")
		buildWorkers = flag.Int("build-workers", 0, "override oocscale store-build workers (0 = default)")
		histWorkers  = flag.Int("hist-workers", 0, "override oocscale histogram workers (0 = default)")
		jsonOut      = flag.String("json", "", "write oocscale/objscale results to this JSON file")
		objRows      = flag.Int("obj-rows", 0, "override objscale row count (0 = default)")
	)
	flag.Parse()

	want, err := selection(*run)
	if err != nil {
		log.Fatal(err)
	}

	do := func(name string, fn func() error) {
		if !want[name] {
			return
		}
		start := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("  [%s finished in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	do("fig7", func() error {
		rows, err := experiments.Fig7(*keyBits, 2000)
		if err != nil {
			return err
		}
		experiments.PrintFig7(os.Stdout, *keyBits, rows)
		return nil
	})

	do("table1", func() error {
		tc := experiments.DefaultTable1()
		tc.KeyBits = *keyBits
		if *scale > 0 {
			// The paper sweeps N over {2.5M, 5M, 10M}.
			tc.Ns = []int{int(2.5e6 / *scale), int(5e6 / *scale), int(10e6 / *scale)}
		}
		rows, err := experiments.Table1(tc)
		if err != nil {
			return err
		}
		experiments.PrintTable1(os.Stdout, tc, rows)
		return nil
	})

	do("table2", func() error {
		tc := experiments.DefaultTable2()
		tc.KeyBits = *keyBits
		rows, err := experiments.Table2(tc)
		if err != nil {
			return err
		}
		experiments.PrintTable2(os.Stdout, tc, rows)
		return nil
	})

	do("fig10", func() error {
		fc := experiments.DefaultFig10(*preset)
		fc.KeyBits = *keyBits
		if *scale > 0 {
			fc.Scale = *scale
		}
		if *trees > 0 {
			fc.Trees = *trees
		}
		series, err := experiments.Fig10(fc)
		if err != nil {
			return err
		}
		experiments.PrintFig10(os.Stdout, fc, series)
		return nil
	})

	do("table4", func() error {
		tc := experiments.DefaultTable4()
		tc.KeyBits = *keyBits
		if *scale > 0 {
			tc.Scale = *scale
		}
		if *trees > 0 {
			tc.Trees = *trees
		}
		rows, err := experiments.Table4(tc)
		if err != nil {
			return err
		}
		experiments.PrintTable4(os.Stdout, tc, rows)
		return nil
	})

	do("table5", func() error {
		tc := experiments.DefaultTable5()
		tc.KeyBits = *keyBits
		if *scale > 0 {
			tc.Scale = *scale
		}
		if *trees > 0 {
			tc.Trees = *trees
		}
		rows, err := experiments.Table5(tc)
		if err != nil {
			return err
		}
		experiments.PrintTable5(os.Stdout, tc, rows)
		return nil
	})

	do("table6", func() error {
		tc := experiments.DefaultTable6()
		tc.KeyBits = *keyBits
		if *scale > 0 {
			tc.Scale = *scale
		}
		if *trees > 0 {
			tc.Trees = *trees
		}
		rows, refs, err := experiments.Table6(tc)
		if err != nil {
			return err
		}
		experiments.PrintTable6(os.Stdout, tc, rows, refs)
		return nil
	})

	do("gantt", func() error {
		gc := experiments.DefaultGantt()
		gc.KeyBits = *keyBits
		results, err := experiments.Gantt(gc)
		if err != nil {
			return err
		}
		experiments.PrintGantt(os.Stdout, gc, results)
		return nil
	})

	do("oocscale", func() error {
		tc := experiments.DefaultOOC()
		if *oocRows > 0 {
			tc.Rows = *oocRows
		}
		if *trees > 0 {
			tc.Trees = *trees
		}
		if *buildWorkers > 0 {
			tc.BuildWorkers = *buildWorkers
		}
		if *histWorkers > 0 {
			tc.HistWorkers = *histWorkers
		}
		build, rows, err := experiments.OOCScale(tc)
		if err != nil {
			return err
		}
		experiments.PrintOOC(os.Stdout, tc, build, rows)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			date := time.Now().UTC().Format("2006-01-02")
			if err := experiments.WriteOOCJSON(f, date, tc, build, rows); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})

	do("objscale", func() error {
		tc := experiments.DefaultObjScale()
		if *objRows > 0 {
			tc.Rows = *objRows
		}
		if *trees > 0 {
			tc.Trees = *trees
		}
		if *keyBits != 512 { // 512 is this command's generic default
			tc.KeyBits = *keyBits
		}
		rows, rank, err := experiments.ObjScale(tc)
		if err != nil {
			return err
		}
		experiments.PrintObjScale(os.Stdout, tc, rows, rank)
		if *jsonOut != "" {
			f, err := os.Create(*jsonOut)
			if err != nil {
				return err
			}
			defer f.Close()
			date := time.Now().UTC().Format("2006-01-02")
			if err := experiments.WriteObjScaleJSON(f, date, tc, rows, rank); err != nil {
				return err
			}
			fmt.Printf("wrote %s\n", *jsonOut)
		}
		return nil
	})
}
