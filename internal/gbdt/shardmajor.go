package gbdt

import (
	"sort"
	"sync"
)

// Shard-major tree growth.
//
// The node-major schedule in train.go sweeps one instance list per node
// per layer. Over an in-memory BinnedMatrix that is optimal — every row
// costs the same — but over a disk-backed view whose rows live in
// row-range shards it re-reads every shard once per *node list* that
// crosses it, and the store's LRU cache turns a layer into shards ×
// nodes worth of load/evict churn (the measured 11.8k shard loads for a
// 31-shard, 3-tree, depth-6 run — ~127× read amplification over
// shards × trees).
//
// The shard-major schedule inverts the loops: each layer walks the
// shards in row order exactly once, and while a shard is resident it
// accumulates *every* node's rows that live in it. Two invariants make
// the result byte-identical to the node-major path (float addition is
// not associative, so this is a scheduling property, not a given):
//
//  1. The accumulation units are the node-major path's own units — the
//     whole list on wide layers, shardedHistogram's fixed-size chunks on
//     narrow ones — merged in the same order. Nothing is regrouped.
//  2. Instance lists are ascending (the root list is 0..n-1 and
//     partition preserves order), so a unit's rows inside one shard form
//     a contiguous subrange, and the per-shard barrier of the sweep
//     delivers those subranges to each unit's histogram in ascending
//     order — the exact sequence a sequential Accumulate performs.
//
// Parallelism therefore lives across units within a shard (distinct
// histograms, no races) and in the I/O: the sweep hints the next
// planned shard to a ShardPrefetcher so its read overlaps this shard's
// compute, and the store's singleflight load path (internal/ooc) lets
// concurrent loads of distinct shards proceed without serializing on a
// store-wide mutex.
//
// Tree growth additionally fuses partitioning into the next layer's
// sweep (growTreeShardMajor): one shard pass both routes the previous
// layer's split rows to their children and accumulates the children's
// histograms, so a tree of depth d costs d sweeps plus the margin
// update — (d+1) × shards loads per tree in total, the bound the
// regression tests assert.

// ShardedView is an optional BinView capability implemented by views
// whose rows live in contiguous row-range shards with non-uniform
// access cost (the disk-backed store in internal/ooc). When a view
// reports more than one shard, tree growth and histogram construction
// switch to the shard-major schedule above; models stay byte-identical
// across schedules.
type ShardedView interface {
	BinView
	// NumShards returns the shard count.
	NumShards() int
	// ShardRowRange returns the half-open row range [lo, hi) of shard k.
	// Shards cover the row space contiguously and in index order.
	ShardRowRange(k int) (lo, hi int)
	// Shard makes shard k resident — one cache visit, however many of its
	// rows are then read — and returns a view that serves k's rows from
	// the copy it holds: an eviction behind the reader's back costs no
	// reload. The failure is Row's.
	Shard(k int) (BinView, error)
}

// ShardPrefetcher is an optional capability of a ShardedView: the
// shard-major sweep announces the next shard it is going to touch so
// the view can read it ahead asynchronously. PrefetchShard must not
// block; a view is free to ignore hints (e.g. under budget pressure).
type ShardPrefetcher interface{ PrefetchShard(k int) }

// shardMajor reports whether bm should be swept shard-major.
func shardMajor(bm BinView) (ShardedView, bool) {
	sv, ok := bm.(ShardedView)
	return sv, ok && sv.NumShards() > 1
}

// histChunk is one accumulation unit of a layer: a node's whole
// instance list, or one of shardedHistogram's fixed-size chunks of it.
type histChunk struct {
	node  int
	insts []int32
	hist  *Histogram
}

// planChunks reproduces the node-major path's accumulation units for
// one layer: one unit per node on wide layers (len(active) >= workers),
// shardedHistogram's chunking on narrow ones. Unit boundaries and the
// later merge order must match the node-major path exactly — they
// decide the float addition order.
func planChunks(m *BinMapper, active []*nodeWork, workers int) ([]*histChunk, [][]*histChunk) {
	perNode := make([][]*histChunk, len(active))
	var all []*histChunk
	wide := len(active) >= workers
	for k, nw := range active {
		if wide || workers <= 1 || len(nw.insts) < 1024 {
			c := &histChunk{node: k, insts: nw.insts, hist: NewHistogram(m)}
			perNode[k] = []*histChunk{c}
			all = append(all, c)
			continue
		}
		chunk := (len(nw.insts) + workers - 1) / workers
		for lo := 0; lo < len(nw.insts); lo += chunk {
			hi := min(lo+chunk, len(nw.insts))
			c := &histChunk{node: k, insts: nw.insts[lo:hi], hist: NewHistogram(m)}
			perNode[k] = append(perNode[k], c)
			all = append(all, c)
		}
	}
	return all, perNode
}

// chunkLists are the chunks' instance lists, the form SweepShards takes.
func chunkLists(chunks []*histChunk) [][]int32 {
	lists := make([][]int32, len(chunks))
	for i, c := range chunks {
		lists[i] = c.insts
	}
	return lists
}

// shardSeg is the run lists[list][lo:hi] of one list inside one shard.
type shardSeg struct{ list, lo, hi int }

// planShardSegs cuts every list at the shard boundaries. A list is
// ascending, so its rows inside one shard are one contiguous run, found by
// binary search.
func planShardSegs(sv ShardedView, lists [][]int32) [][]shardSeg {
	segs := make([][]shardSeg, sv.NumShards())
	for k, l := range lists {
		for i := 0; i < len(l); {
			s := shardOf(sv, int(l[i]))
			_, hiRow := sv.ShardRowRange(s)
			j := i + sort.Search(len(l)-i, func(x int) bool { return int(l[i+x]) >= hiRow })
			segs[s] = append(segs[s], shardSeg{list: k, lo: i, hi: j})
			i = j
		}
	}
	return segs
}

// shardOf locates the shard holding a row.
func shardOf(sv ShardedView, row int) int {
	return sort.Search(sv.NumShards(), func(s int) bool {
		_, hi := sv.ShardRowRange(s)
		return row < hi
	})
}

// SweepShards is the one way to read the rows of a set of ascending
// instance lists: it walks the shards the lists touch in row order, makes
// each resident once (ShardedView.Shard) with the next one announced for
// readahead, and hands visit every list's run inside the shard —
// lists[list][lo:hi], to be read through rows. run executes the n units
// of a shard — calling unit(0..n-1) on whatever goroutines it owns and
// returning the first error once all have returned — and is the barrier
// between shards: the runs of one list reach visit in ascending order,
// one at a time, while different lists proceed in parallel; hi ==
// len(lists[list]) marks a list's last run. An empty list is never
// visited. A view without shards (the in-memory BinnedMatrix) is the
// one-shard case of the same code: one unit per list, the whole list.
func SweepShards(bv BinView, lists [][]int32, run func(n int, unit func(i int) error) error,
	visit func(rows BinView, list, lo, hi int) error) error {
	sv, sharded := shardMajor(bv)
	segs := make([][]shardSeg, 1)
	if sharded {
		segs = planShardSegs(sv, lists)
	} else {
		for k, l := range lists {
			if len(l) > 0 {
				segs[0] = append(segs[0], shardSeg{list: k, hi: len(l)})
			}
		}
	}
	var touched []int
	for s := range segs {
		if len(segs[s]) > 0 {
			touched = append(touched, s)
		}
	}
	pf, _ := bv.(ShardPrefetcher)
	for ti, s := range touched {
		rows := bv
		if sharded {
			// Announce the next shard only once this one is resident:
			// prefetching before the demand load would race it for the
			// cache's LRU slots; after it, the current shard is the most
			// recently used and safe.
			var err error
			if rows, err = sv.Shard(s); err != nil {
				return err
			}
			if pf != nil && ti+1 < len(touched) {
				pf.PrefetchShard(touched[ti+1])
			}
		}
		ss := segs[s]
		if err := run(len(ss), func(i int) error { return visit(rows, ss[i].list, ss[i].lo, ss[i].hi) }); err != nil {
			return err
		}
	}
	return nil
}

// unitsOn returns a SweepShards runner on up to `workers` goroutines.
func unitsOn(workers int) func(n int, unit func(i int) error) error {
	return func(n int, unit func(i int) error) error {
		if workers <= 1 || n == 1 {
			for i := 0; i < n; i++ {
				if err := unit(i); err != nil {
					return err
				}
			}
			return nil
		}
		var wg sync.WaitGroup
		var ec errCollector
		sem := make(chan struct{}, workers)
		for i := 0; i < n; i++ {
			wg.Add(1)
			sem <- struct{}{}
			go func(i int) {
				defer wg.Done()
				defer func() { <-sem }()
				ec.add(unit(i))
			}(i)
		}
		wg.Wait()
		return ec.first()
	}
}

// buildLayerHistogramsSharded is the shard-major equivalent of
// buildLayerHistograms: same histograms, bit for bit, at most one load
// per shard for the whole layer.
func buildLayerHistogramsSharded(sv ShardedView, active []*nodeWork, grads, hess []float64, workers int) ([]*Histogram, error) {
	chunks, perNode := planChunks(sv.Mapper(), active, workers)
	err := SweepShards(sv, chunkLists(chunks), unitsOn(workers), func(rows BinView, c, lo, hi int) error {
		return chunks[c].hist.Accumulate(rows, chunks[c].insts[lo:hi], grads, hess)
	})
	if err != nil {
		return nil, err
	}
	hists := make([]*Histogram, len(active))
	for k, cs := range perNode {
		acc := cs[0].hist
		for _, c := range cs[1:] {
			acc.Merge(c.hist)
		}
		hists[k] = acc
	}
	return hists, nil
}

// listsAscending reports whether every instance list is sorted — the
// precondition for splitting lists at shard boundaries. Lists produced
// by this package and by the federated engines always are; the check
// guards external callers of BuildHistograms.
func listsAscending(lists [][]int32) bool {
	for _, l := range lists {
		for i := 1; i < len(l); i++ {
			if l[i-1] > l[i] {
				return false
			}
		}
	}
	return true
}

// fuseTask is one split carried into the next layer's sweep: the parent
// list still to be routed, and the two children whose instance lists
// and (when fused) histograms the sweep fills in.
type fuseTask struct {
	parent       *nodeWork
	feature, bin int32
	left, right  *nodeWork
}

// canFuse reports whether the next layer's histograms can be built in
// the same sweep that routes the parents' rows: true when every child
// is a single accumulation unit — the next layer is wide enough to get
// one unit per node, or small enough that shardedHistogram would not
// chunk it (children can't outgrow their parents). Otherwise the chunk
// boundaries depend on final child list lengths unknowable mid-sweep,
// and the layer falls back to a routing sweep followed by a histogram
// sweep — two shard passes instead of one, only on narrow layers with
// large parents.
func canFuse(fusion []*fuseTask, nextCount, workers int) bool {
	if workers <= 1 || nextCount >= workers {
		return true
	}
	for _, f := range fusion {
		if len(f.parent.insts) >= 1024 {
			return false
		}
	}
	return true
}

// routeScratch is the per-task routing buffer pair.
type routeScratch struct{ left, right []int32 }

// routeSegment routes one contiguous slice of a parent's instances
// through its split, appending to the scratch buffers.
func routeSegment(rows BinView, f *fuseTask, seg []int32, sc *routeScratch) error {
	sc.left, sc.right = sc.left[:0], sc.right[:0]
	for _, i := range seg {
		goesLeft, err := GoesLeft(rows, i, f.feature, f.bin)
		if err != nil {
			return err
		}
		if goesLeft {
			sc.left = append(sc.left, i)
		} else {
			sc.right = append(sc.right, i)
		}
	}
	return nil
}

// fusedSweep performs one shard pass that both routes every parent's
// rows to its children and accumulates the children's histograms. Rows
// are routed shard by shard in ascending order, so child lists come out
// ascending and each child histogram receives its rows in exactly the
// order a dedicated node-major sweep would add them.
func fusedSweep(sv ShardedView, fusion []*fuseTask, grads, hess []float64, workers int) ([]*Histogram, error) {
	m := sv.Mapper()
	lh := make([]*Histogram, len(fusion))
	rh := make([]*Histogram, len(fusion))
	for i := range fusion {
		lh[i] = NewHistogram(m)
		rh[i] = NewHistogram(m)
	}
	pool := sync.Pool{New: func() any { return new(routeScratch) }}
	err := SweepShards(sv, parentLists(fusion), unitsOn(workers), func(rows BinView, k, lo, hi int) error {
		f := fusion[k]
		sc := pool.Get().(*routeScratch)
		defer pool.Put(sc)
		if err := routeSegment(rows, f, f.parent.insts[lo:hi], sc); err != nil {
			return err
		}
		if err := lh[k].Accumulate(rows, sc.left, grads, hess); err != nil {
			return err
		}
		if err := rh[k].Accumulate(rows, sc.right, grads, hess); err != nil {
			return err
		}
		f.left.insts = append(f.left.insts, sc.left...)
		f.right.insts = append(f.right.insts, sc.right...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	hists := make([]*Histogram, 0, 2*len(fusion))
	for i := range fusion {
		hists = append(hists, lh[i], rh[i])
	}
	return hists, nil
}

// partitionSweepSharded routes every parent's rows to its children in
// one shard pass without touching histograms — the first half of the
// two-pass fallback when fusion can't predict child chunk boundaries.
func partitionSweepSharded(sv ShardedView, fusion []*fuseTask, workers int) error {
	pool := sync.Pool{New: func() any { return new(routeScratch) }}
	return SweepShards(sv, parentLists(fusion), unitsOn(workers), func(rows BinView, k, lo, hi int) error {
		f := fusion[k]
		sc := pool.Get().(*routeScratch)
		defer pool.Put(sc)
		if err := routeSegment(rows, f, f.parent.insts[lo:hi], sc); err != nil {
			return err
		}
		f.left.insts = append(f.left.insts, sc.left...)
		f.right.insts = append(f.right.insts, sc.right...)
		return nil
	})
}

// parentLists are the instance lists a layer's splits still have to route.
func parentLists(fusion []*fuseTask) [][]int32 {
	lists := make([][]int32, len(fusion))
	for i, f := range fusion {
		lists[i] = f.parent.insts
	}
	return lists
}

// growTreeShardMajor grows one tree with the shard-major schedule. The
// split decisions, node numbering and leaf weights replicate growTree
// exactly; only the order shards are touched in changes. Each layer
// costs one shard sweep (fused routing + child histograms); the last
// layer's routing is skipped entirely because leaf weights come from
// the split statistics, never from the child lists.
func growTreeShardMajor(sv ShardedView, grads, hess []float64, p Params) (*Tree, error) {
	tree := NewTree()
	all := make([]int32, sv.Rows())
	var g0, h0 float64
	for i := range all {
		all[i] = int32(i)
		g0 += grads[i]
		h0 += hess[i]
	}
	active := []*nodeWork{{id: 0, insts: all, g: g0, h: h0}}

	hists, err := buildLayerHistogramsSharded(sv, active, grads, hess, p.Workers)
	if err != nil {
		return nil, err
	}
	for depth := 0; ; depth++ {
		last := depth == p.MaxDepth-1
		var fusion []*fuseTask
		var next []*nodeWork
		for k, nw := range active {
			split := BestSplit(hists[k], nw.g, nw.h, p.Split)
			if !split.Valid() {
				tree.SetLeaf(nw.id, LeafWeight(nw.g, nw.h, p.Split.Lambda))
				continue
			}
			threshold := sv.Mapper().Threshold(int(split.Feature), int(split.Bin))
			leftID, rightID := tree.AddSplit(nw.id, split.Feature, threshold, split.Gain)
			left := &nodeWork{id: leftID, g: split.GL, h: split.HL}
			right := &nodeWork{id: rightID, g: nw.g - split.GL, h: nw.h - split.HL}
			if last {
				tree.SetLeaf(leftID, LeafWeight(left.g, left.h, p.Split.Lambda))
				tree.SetLeaf(rightID, LeafWeight(right.g, right.h, p.Split.Lambda))
				continue
			}
			fusion = append(fusion, &fuseTask{parent: nw, feature: split.Feature, bin: split.Bin, left: left, right: right})
			next = append(next, left, right)
		}
		if last || len(next) == 0 {
			return tree, nil
		}
		if canFuse(fusion, len(next), p.Workers) {
			hists, err = fusedSweep(sv, fusion, grads, hess, p.Workers)
		} else {
			if err = partitionSweepSharded(sv, fusion, p.Workers); err != nil {
				return nil, err
			}
			hists, err = buildLayerHistogramsSharded(sv, next, grads, hess, p.Workers)
		}
		if err != nil {
			return nil, err
		}
		active = next
	}
}
