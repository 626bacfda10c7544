// Command datagen generates synthetic datasets in LibSVM format, either
// from the paper's Table 3 presets (scaled) or from explicit shape
// parameters, optionally pre-split into per-party files for federated
// training.
//
// Usage:
//
//	datagen -preset rcv1 -scale 1000 -out rcv1.libsvm
//	datagen -rows 10000 -cols 200 -density 0.1 -out data.libsvm -split 120,80
//	datagen -stream -rows 100000000 -cols 100 -out big.libsvm
//
// With -stream, rows are generated straight to the output writer in O(1)
// memory per row (see dataset.StreamGenerator), so dataset size is
// bounded by disk, not RAM. -stream composes with -split: each party's
// file gets its column slice (renumbered from 1) and only the last
// party's file carries labels, without ever materializing the join.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"vf2boost/internal/dataset"
)

func main() {
	log.SetFlags(0)
	var (
		preset  = flag.String("preset", "", "Table 3 preset name (census,a9a,susy,epsilon,rcv1,synthesis,industry)")
		scale   = flag.Float64("scale", 1000, "preset scale divisor (1 = paper-size)")
		rows    = flag.Int("rows", 1000, "instances (custom mode)")
		cols    = flag.Int("cols", 50, "features (custom mode)")
		density = flag.Float64("density", 0.2, "stored-entry fraction (custom mode)")
		dense   = flag.Bool("dense", false, "dense Gaussian features (custom mode)")
		noise   = flag.Float64("noise", 0, "label flip probability (custom mode)")
		seed    = flag.Int64("seed", 1, "generator seed")
		out     = flag.String("out", "data.libsvm", "output path (or base path with -split)")
		split   = flag.String("split", "", "comma-separated per-party feature counts; last party keeps labels")
		stream  = flag.Bool("stream", false, "generate rows straight to the writer without materializing the dataset")
		classes = flag.Int("classes", 0, "generate k-class labels instead of binary (dense features; for -objective multiclass:k)")
		rankQ   = flag.Int("rank-groups", 0, "generate a ranking dataset with this many query groups (qid:N tokens; for -objective ranking)")
		rankQSz = flag.Int("group-size", 8, "documents per query group (with -rank-groups)")
	)
	flag.Parse()

	if *classes >= 2 || *rankQ > 0 {
		if *stream || *preset != "" {
			log.Fatal("-classes/-rank-groups are custom-mode only (no -stream, no -preset)")
		}
		if err := genObjective(*classes, *rankQ, *rankQSz, *rows, *cols, *noise, *seed, *out, *split); err != nil {
			log.Fatal(err)
		}
		return
	}

	var opts dataset.GenOptions
	var counts []int
	if *preset != "" {
		p, ok := dataset.PresetByName(*preset)
		if !ok {
			log.Fatalf("unknown preset %q", *preset)
		}
		opts, counts = p.Options(*scale, *seed)
	} else {
		opts = dataset.GenOptions{
			Rows: *rows, Cols: *cols, Density: *density,
			Dense: *dense, NoiseProb: *noise, Seed: *seed,
		}
	}
	if *split != "" {
		counts = counts[:0]
		for _, f := range strings.Split(*split, ",") {
			c, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || c <= 0 {
				log.Fatalf("bad split %q", *split)
			}
			counts = append(counts, c)
		}
	}
	doSplit := *split != "" || (*preset != "" && len(counts) > 0)

	if *stream {
		if doSplit {
			if err := streamSplit(opts, counts, *out); err != nil {
				log.Fatal(err)
			}
		} else {
			if err := streamSingle(opts, *out); err != nil {
				log.Fatal(err)
			}
		}
		return
	}

	d, err := dataset.Generate(opts)
	if err != nil {
		log.Fatal(err)
	}

	if !doSplit {
		if err := dataset.SaveLibSVMFile(*out, d, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d x %d, density %.4f\n", *out, d.Rows(), d.Cols(), d.Density())
		return
	}

	parts, err := d.VerticalSplit(counts, len(counts)-1)
	if err != nil {
		log.Fatal(err)
	}
	for i, p := range parts {
		path := partyPath(*out, i, len(parts))
		if err := dataset.SaveLibSVMFile(path, p, nil); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s: %d x %d (labels: %v)\n", path, p.Rows(), p.Cols(), p.Labels != nil)
	}
}

// genObjective writes a multiclass or ranking dataset, optionally split
// vertically. Ranking files carry qid:N group tokens; with -split only
// the label-holding party's file gets them (passive shards are feature
// slices with neither labels nor groups).
func genObjective(classes, rankQ, groupSize, rows, cols int, noise float64, seed int64, out, split string) error {
	var d *dataset.Dataset
	var groups []int
	var err error
	if classes >= 2 {
		d, err = dataset.GenerateMulticlass(dataset.MultiGenOptions{
			Rows: rows, Cols: cols, Classes: classes, NoiseProb: noise, Seed: seed,
		})
	} else {
		d, groups, err = dataset.GenerateRanking(dataset.RankGenOptions{
			Groups: rankQ, GroupSize: groupSize, Cols: cols, Noise: noise, Seed: seed,
		})
	}
	if err != nil {
		return err
	}
	save := func(path string, p *dataset.Dataset) error {
		pg := groups
		if p.Labels == nil {
			pg = nil
		}
		if err := dataset.SaveLibSVMFile(path, p, pg); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d x %d (labels: %v)\n", path, p.Rows(), p.Cols(), p.Labels != nil)
		return nil
	}
	if split == "" {
		return save(out, d)
	}
	var counts []int
	for _, f := range strings.Split(split, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || c <= 0 {
			return fmt.Errorf("bad split %q", split)
		}
		counts = append(counts, c)
	}
	parts, err := d.VerticalSplit(counts, len(counts)-1)
	if err != nil {
		return err
	}
	for i, p := range parts {
		if err := save(partyPath(out, i, len(parts)), p); err != nil {
			return err
		}
	}
	return nil
}

// partyPath names party i's output file: base.partyA<i>.libsvm for
// passive parties, base.partyB.libsvm for the label holder.
func partyPath(out string, i, parties int) string {
	base := strings.TrimSuffix(out, ".libsvm")
	if i == parties-1 {
		return base + ".partyB.libsvm"
	}
	return fmt.Sprintf("%s.partyA%d.libsvm", base, i)
}

// streamSingle generates rows straight into one LibSVM file.
func streamSingle(o dataset.GenOptions, out string) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	w := dataset.NewLibSVMWriter(f)
	err = dataset.StreamGen(o, func(row int, indices []int32, values []float64, label float64) error {
		return w.WriteRow(indices, values, label, -1)
	})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d x %d (streamed)\n", out, o.Rows, o.Cols)
	return nil
}

// streamSplit generates rows once and demuxes each row's entries across
// per-party files by column range; only the last party's file carries
// labels. Memory stays O(1) per row regardless of row count.
func streamSplit(o dataset.GenOptions, counts []int, out string) error {
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != o.Cols {
		return fmt.Errorf("split %v covers %d features, dataset has %d", counts, total, o.Cols)
	}

	files := make([]*os.File, len(counts))
	writers := make([]*dataset.LibSVMWriter, len(counts))
	paths := make([]string, len(counts))
	for p := range counts {
		paths[p] = partyPath(out, p, len(counts))
		f, err := os.Create(paths[p])
		if err != nil {
			return err
		}
		files[p] = f
		writers[p] = dataset.NewLibSVMWriter(f)
	}

	// Per-party row buffers, reused across rows.
	idxBuf := make([][]int32, len(counts))
	valBuf := make([][]float64, len(counts))
	starts := make([]int32, len(counts)+1)
	for p, c := range counts {
		starts[p+1] = starts[p] + int32(c)
	}

	err := dataset.StreamGen(o, func(row int, indices []int32, values []float64, label float64) error {
		for p := range counts {
			idxBuf[p], valBuf[p] = idxBuf[p][:0], valBuf[p][:0]
		}
		p := 0
		for k, j := range indices { // indices sorted: walk party boundaries forward
			for j >= starts[p+1] {
				p++
			}
			idxBuf[p] = append(idxBuf[p], j-starts[p])
			valBuf[p] = append(valBuf[p], values[k])
		}
		for p := range counts {
			l := 0.0
			if p == len(counts)-1 {
				l = label
			}
			if err := writers[p].WriteRow(idxBuf[p], valBuf[p], l, -1); err != nil {
				return err
			}
		}
		return nil
	})
	for p := range counts {
		if ferr := writers[p].Flush(); err == nil {
			err = ferr
		}
		if cerr := files[p].Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	for p, c := range counts {
		fmt.Printf("wrote %s: %d x %d (labels: %v, streamed)\n", paths[p], o.Rows, c, p == len(counts)-1)
	}
	return nil
}
