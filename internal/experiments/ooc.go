package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/ooc"
)

// OOCConfig parameterizes the out-of-core scale experiment: one store is
// built from a streamed synthetic source (the dataset never
// materializes), then training runs under a sweep of shard-cache
// budgets. The quantities of interest are build and train throughput
// (rows/sec), the shard-cache behavior at each budget, and the peak Go
// heap — which must stay near the budget, not near the dataset size.
type OOCConfig struct {
	Rows      int
	Cols      int
	Density   float64
	Trees     int
	Depth     int
	MaxBins   int
	ChunkRows int
	// Budgets are shard-cache caps in bytes; 0 means unlimited (the
	// everything-resident reference point).
	Budgets []int64
	Seed    int64
	// BuildWorkers parallelizes pass 2 of the store build (and chunk
	// generation in pass 1); <= 1 builds serially. The output directory
	// is byte-identical either way.
	BuildWorkers int
	// HistWorkers bounds histogram-build parallelism during the training
	// sweep; <= 0 uses one worker (the historical single-threaded
	// reference point).
	HistWorkers int
	// Dir holds the store between runs; empty uses a temp dir removed at
	// the end.
	Dir string
}

// DefaultOOC returns the sweep used by cmd/experiments and bench.sh.
func DefaultOOC() OOCConfig {
	return OOCConfig{
		Rows:      2_000_000,
		Cols:      50,
		Density:   0.2,
		Trees:     3,
		Depth:     6,
		MaxBins:   20,
		ChunkRows: 1 << 16,
		Budgets:   []int64{0, 64 << 20, 16 << 20, 4 << 20},
		Seed:      17,

		BuildWorkers: 4,
		HistWorkers:  1,
	}
}

// OOCBuild describes the store-construction pass.
type OOCBuild struct {
	Wall       time.Duration `json:"wall_ns"`
	RowsPerSec float64       `json:"rows_per_sec"`
	Shards     int           `json:"shards"`
	PeakHeap   uint64        `json:"peak_heap_bytes"`
	Workers    int           `json:"workers"`
}

// OOCRow is one budget point of the training sweep.
type OOCRow struct {
	Budget     int64         `json:"budget_bytes"`
	Wall       time.Duration `json:"wall_ns"`
	RowsPerSec float64       `json:"rows_per_sec"` // instance-rows visited per second (rows x trees / wall)
	PeakHeap   uint64        `json:"peak_heap_bytes"`
	Loads      int64         `json:"loads"`
	Prefetches int64         `json:"prefetches"`
	Evictions  int64         `json:"evictions"`
	PeakCache  int64         `json:"peak_cache_bytes"`
	// LoadsPerShardTree is Loads / (shards × trees): 1.0 means every
	// shard was read exactly once per tree — the trainer's floor is
	// depth+1 per tree (one fused sweep per level plus the margin
	// update).
	LoadsPerShardTree float64 `json:"loads_per_shard_tree"`
	// ModelMatchesRef reports whether this budget's model is
	// byte-identical to the first run's (the unlimited-budget,
	// everything-resident reference).
	ModelMatchesRef bool `json:"model_matches_ref"`
}

// heapSampler tracks peak HeapAlloc while a measured section runs. The
// sampling interval bounds how short a spike it can see; for shard-cache
// footprints (which persist for whole tree layers) that is plenty.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		var ms runtime.MemStats
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > h.peak {
				h.peak = ms.HeapAlloc
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the observed peak HeapAlloc.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	<-h.done
	return h.peak
}

// OOCScale builds the store and runs the budget sweep.
func OOCScale(tc OOCConfig) (OOCBuild, []OOCRow, error) {
	dir := tc.Dir
	if dir == "" {
		var err error
		dir, err = os.MkdirTemp("", "oocscale-")
		if err != nil {
			return OOCBuild{}, nil, err
		}
		defer os.RemoveAll(dir)
	}

	src, err := ooc.NewSynthSource(dataset.GenOptions{
		Rows: tc.Rows, Cols: tc.Cols, Density: tc.Density, Seed: tc.Seed,
	})
	if err != nil {
		return OOCBuild{}, nil, err
	}

	buildWorkers := tc.BuildWorkers
	if buildWorkers < 1 {
		buildWorkers = 1
	}
	runtime.GC()
	hs := startHeapSampler()
	buildStart := time.Now()
	if err := ooc.Build(dir, src, ooc.BuildOptions{MaxBins: tc.MaxBins, ChunkRows: tc.ChunkRows, Workers: buildWorkers}); err != nil {
		hs.Stop()
		return OOCBuild{}, nil, err
	}
	buildWall := time.Since(buildStart)
	build := OOCBuild{
		Wall:       buildWall,
		RowsPerSec: float64(tc.Rows) / secs(buildWall),
		PeakHeap:   hs.Stop(),
		Workers:    buildWorkers,
	}

	p := gbdt.DefaultParams()
	p.NumTrees = tc.Trees
	p.MaxDepth = tc.Depth
	p.MaxBins = tc.MaxBins
	p.Workers = tc.HistWorkers
	if p.Workers < 1 {
		p.Workers = 1
	}

	var rows []OOCRow
	var refModel []byte
	for _, budget := range tc.Budgets {
		st, err := ooc.Open(dir, ooc.Options{MemBudget: budget, Prefetch: true})
		if err != nil {
			return build, nil, err
		}
		if build.Shards == 0 {
			build.Shards = st.NumShards()
		}
		labels, err := st.Labels()
		if err != nil {
			return build, nil, err
		}
		runtime.GC()
		hs := startHeapSampler()
		start := time.Now()
		m, err := gbdt.TrainBinned(st, labels, nil, p)
		if err != nil {
			hs.Stop()
			return build, nil, err
		}
		wall := time.Since(start)
		cs := st.Stats()
		encoded, err := json.Marshal(m)
		if err != nil {
			hs.Stop()
			return build, nil, err
		}
		if refModel == nil {
			refModel = encoded
		}
		rows = append(rows, OOCRow{
			Budget:            budget,
			Wall:              wall,
			RowsPerSec:        float64(tc.Rows) * float64(tc.Trees) / secs(wall),
			PeakHeap:          hs.Stop(),
			Loads:             cs.Loads,
			Prefetches:        cs.Prefetches,
			Evictions:         cs.Evictions,
			PeakCache:         cs.PeakBytes,
			LoadsPerShardTree: float64(cs.Loads) / float64(st.NumShards()*tc.Trees),
			ModelMatchesRef:   string(encoded) == string(refModel),
		})
	}
	return build, rows, nil
}

// PrintOOC renders the sweep.
func PrintOOC(w io.Writer, tc OOCConfig, build OOCBuild, rows []OOCRow) {
	fmt.Fprintf(w, "Out-of-core scale: %d x %d (density %.2f), T=%d depth %d, %d shards of %d rows\n",
		tc.Rows, tc.Cols, tc.Density, tc.Trees, tc.Depth, build.Shards, tc.ChunkRows)
	fmt.Fprintf(w, "  build: %v (%.0f rows/s, %d workers), peak heap %s\n",
		build.Wall.Round(time.Millisecond), build.RowsPerSec, build.Workers, fmtBytes(int64(build.PeakHeap)))
	fmt.Fprintf(w, "  %-10s | %10s | %12s | %10s | %7s | %8s | %5s | %7s | %10s | %5s\n",
		"budget", "wall", "rows/s", "peak heap", "loads", "ld/sh·t", "pref", "evict", "peak cache", "model")
	for _, r := range rows {
		budget := "unlimited"
		if r.Budget > 0 {
			budget = fmtBytes(r.Budget)
		}
		match := "match"
		if !r.ModelMatchesRef {
			match = "DRIFT"
		}
		fmt.Fprintf(w, "  %-10s | %10v | %12.0f | %10s | %7d | %8.2f | %5d | %7d | %10s | %5s\n",
			budget, r.Wall.Round(time.Millisecond), r.RowsPerSec,
			fmtBytes(int64(r.PeakHeap)), r.Loads, r.LoadsPerShardTree,
			r.Prefetches, r.Evictions, fmtBytes(r.PeakCache), match)
	}
}

// fmtBytes renders a byte count with a binary suffix.
func fmtBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// oocBench is the BENCH_ooc.json schema.
type oocBench struct {
	Date   string      `json:"date"`
	Config OOCConfig   `json:"config"`
	Build  OOCBuild    `json:"build"`
	Runs   []OOCRow    `json:"runs"`
	Host   oocBenchEnv `json:"host"`
}

type oocBenchEnv struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	CPUs   int    `json:"cpus"`
}

// WriteOOCJSON writes the sweep as the committed BENCH_ooc.json baseline.
func WriteOOCJSON(w io.Writer, date string, tc OOCConfig, build OOCBuild, rows []OOCRow) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(oocBench{
		Date:   date,
		Config: tc,
		Build:  build,
		Runs:   rows,
		Host:   oocBenchEnv{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU()},
	})
}
