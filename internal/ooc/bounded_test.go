package ooc

import (
	"os"
	"runtime"
	"testing"
	"time"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
)

// The acceptance property of the subsystem: training a dataset whose
// binned form exceeds the shard-cache budget completes with the cache
// honoring the budget and the process heap bounded well below the
// materialize-everything footprint. GOMEMLIMIT in the CI leg adds the
// runtime's own enforcement on top of these assertions.
func TestBoundedMemoryTraining(t *testing.T) {
	rows := 200_000
	if testing.Short() {
		rows = 60_000
	}
	const budget = int64(2 << 20)

	src, err := NewSynthSource(dataset.GenOptions{Rows: rows, Cols: 40, Density: 0.25, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Build(dir, src, BuildOptions{ChunkRows: 1 << 14}); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, Options{MemBudget: budget, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	labels, err := st.Labels()
	if err != nil {
		t.Fatal(err)
	}

	// Sample HeapAlloc while training runs.
	stop := make(chan struct{})
	done := make(chan uint64)
	go func() {
		var ms runtime.MemStats
		var peak uint64
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak {
				peak = ms.HeapAlloc
			}
			select {
			case <-stop:
				done <- peak
				return
			case <-tick.C:
			}
		}
	}()

	p := gbdt.DefaultParams()
	p.NumTrees = 2
	p.MaxDepth = 5
	p.Workers = 1
	runtime.GC()
	if _, err := gbdt.TrainBinned(st, labels, nil, p); err != nil {
		t.Fatal(err)
	}
	close(stop)
	peakHeap := <-done

	cs := st.Stats()
	// Binned CSR ≈ nnz x (4B col + 1B bin) + rowPtr.
	binnedBytes := int64(float64(rows)*40*0.25*5) + int64(rows+1)*4
	if binnedBytes <= budget {
		t.Fatalf("test misconfigured: binned data %d fits budget %d", binnedBytes, budget)
	}
	if cs.PeakBytes > budget {
		t.Fatalf("shard cache peaked at %d bytes, budget %d", cs.PeakBytes, budget)
	}
	if cs.Evictions == 0 {
		t.Fatalf("budget never bound: %+v", cs)
	}
	// The heap holds labels, margins, gradients, tree state and the shard
	// cache — all O(rows) at 8-24B/row plus the budget — but must stay far
	// below the GOMEMLIMIT ceiling and well under 2x the binned data plus
	// fixed slack (which materializing the dataset twice would exceed).
	heapCap := uint64(2*binnedBytes) + 48<<20
	if peakHeap > heapCap {
		t.Fatalf("peak heap %d exceeds bound %d (budget %d, binned %d)", peakHeap, heapCap, budget, binnedBytes)
	}
	if os.Getenv("GOMEMLIMIT") != "" {
		t.Logf("ran under GOMEMLIMIT=%s; peak heap %.1f MiB, cache peak %.1f MiB",
			os.Getenv("GOMEMLIMIT"), float64(peakHeap)/(1<<20), float64(cs.PeakBytes)/(1<<20))
	}
}
