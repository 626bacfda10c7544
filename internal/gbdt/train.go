package gbdt

import (
	"fmt"
	"runtime"
	"sync"

	"vf2boost/internal/dataset"
)

// Params configures training. DefaultParams matches the paper's protocol:
// T=20 trees, η=0.1, L=7 tree layers (6 split levels), s=20 bins.
type Params struct {
	// NumTrees is T.
	NumTrees int
	// LearningRate is η.
	LearningRate float64
	// MaxDepth is the number of split levels; a tree has MaxDepth+1
	// layers of nodes.
	MaxDepth int
	// MaxBins is s, the histogram bins per feature.
	MaxBins int
	// Split holds the regularization parameters.
	Split SplitParams
	// Loss is the training objective (defaults to logistic).
	Loss Loss
	// Workers bounds histogram-build parallelism; <= 0 uses GOMAXPROCS.
	Workers int
	// BaseScore is the initial raw margin of every instance.
	BaseScore float64
	// OnTreeDone, if set, is called after each boosting round with the
	// model built so far (used by the loss-vs-time harness of Figure 10).
	OnTreeDone func(tree int, m *Model)
}

// DefaultParams returns the paper's hyper-parameters.
func DefaultParams() Params {
	return Params{
		NumTrees:     20,
		LearningRate: 0.1,
		MaxDepth:     6,
		MaxBins:      20,
		Split:        SplitParams{Lambda: 1},
		Loss:         LogisticLoss{},
	}
}

func (p *Params) normalize() error {
	if p.NumTrees <= 0 {
		return fmt.Errorf("gbdt: NumTrees must be positive, got %d", p.NumTrees)
	}
	if p.LearningRate <= 0 {
		return fmt.Errorf("gbdt: LearningRate must be positive, got %g", p.LearningRate)
	}
	if p.MaxDepth < 1 || p.MaxDepth > 30 {
		return fmt.Errorf("gbdt: MaxDepth %d out of [1,30]", p.MaxDepth)
	}
	if p.MaxBins < 2 || p.MaxBins > 256 {
		return fmt.Errorf("gbdt: MaxBins %d out of [2,256]", p.MaxBins)
	}
	if p.Loss == nil {
		p.Loss = LogisticLoss{}
	}
	if p.Workers <= 0 {
		p.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// Model is a trained GBDT ensemble.
type Model struct {
	Trees        []*Tree `json:"trees"`
	LearningRate float64 `json:"learning_rate"`
	BaseScore    float64 `json:"base_score"`
	LossName     string  `json:"loss"`
	NumFeatures  int     `json:"num_features"`
	// NumOutputs is k for multi-output models (trees stored round-robin,
	// tree t belongs to output t mod k); 0 or 1 means single-output.
	NumOutputs int `json:"num_outputs,omitempty"`
}

// PredictMargin returns the raw margin of row i.
func (m *Model) PredictMargin(d *dataset.Dataset, i int) float64 {
	s := m.BaseScore
	for _, t := range m.Trees {
		s += m.LearningRate * t.Predict(d, i)
	}
	return s
}

// PredictAll returns raw margins for every row.
func (m *Model) PredictAll(d *dataset.Dataset) []float64 {
	out := make([]float64, d.Rows())
	parallelRows(d.Rows(), 0, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = m.PredictMargin(d, i)
		}
	})
	return out
}

// nodeWork is the per-node state during layer-wise growth.
type nodeWork struct {
	id    int32
	insts []int32
	g, h  float64
}

// Train fits a GBDT model on a labeled dataset.
func Train(d *dataset.Dataset, p Params) (*Model, error) {
	if d.Labels == nil {
		return nil, fmt.Errorf("gbdt: dataset has no labels")
	}
	if err := p.normalize(); err != nil {
		return nil, err
	}
	mapper, err := NewBinMapper(d, p.MaxBins)
	if err != nil {
		return nil, err
	}
	return TrainBinned(NewBinnedMatrix(d, mapper), d.Labels, p)
}

// TrainBinned fits a GBDT model from an already-discretized view and its
// label vector — the shared entry point of the in-memory path (Train
// above) and the out-of-core path (internal/ooc), which never
// materializes a Dataset. Margins are updated through binned routing,
// which is exactly equivalent to raw-value routing: every split
// threshold is a cut value, so "v <= Cuts[f][k]" and "Bin(f, v) <= k"
// partition instances identically.
func TrainBinned(bv BinView, labels []float64, p Params) (*Model, error) {
	if err := p.normalize(); err != nil {
		return nil, err
	}
	n := bv.Rows()
	if len(labels) != n {
		return nil, fmt.Errorf("gbdt: %d labels for %d rows", len(labels), n)
	}
	margins := make([]float64, n)
	for i := range margins {
		margins[i] = p.BaseScore
	}
	grads := make([]float64, n)
	hess := make([]float64, n)
	model := &Model{
		LearningRate: p.LearningRate,
		BaseScore:    p.BaseScore,
		LossName:     p.Loss.Name(),
		NumFeatures:  len(bv.Mapper().Cuts),
	}

	for t := 0; t < p.NumTrees; t++ {
		for i := 0; i < n; i++ {
			grads[i], hess[i] = p.Loss.GradHess(labels[i], margins[i])
		}
		tree, err := growTree(bv, grads, hess, p)
		if err != nil {
			return nil, err
		}
		model.Trees = append(model.Trees, tree)
		if err := updateMarginsBinned(margins, tree, bv, p.LearningRate, p.Workers); err != nil {
			return nil, err
		}
		if p.OnTreeDone != nil {
			p.OnTreeDone(t, model)
		}
	}
	return model, nil
}

// growTree grows one tree layer-by-layer. A view failure (a disk-backed
// view that could not deliver a row even after its self-healing path ran)
// aborts the tree and surfaces as the view's typed error.
//
// Views that expose row-range shards (ShardedView, see shardmajor.go)
// are grown shard-major instead: identical trees, one shard load per
// layer instead of one per node.
func growTree(bm BinView, grads, hess []float64, p Params) (*Tree, error) {
	if sv, ok := shardMajor(bm); ok {
		return growTreeShardMajor(sv, grads, hess, p)
	}
	tree := NewTree()
	all := make([]int32, bm.Rows())
	var g0, h0 float64
	for i := range all {
		all[i] = int32(i)
		g0 += grads[i]
		h0 += hess[i]
	}
	active := []*nodeWork{{id: 0, insts: all, g: g0, h: h0}}

	for depth := 0; depth < p.MaxDepth && len(active) > 0; depth++ {
		hists, err := buildLayerHistograms(bm, active, grads, hess, p.Workers)
		if err != nil {
			return nil, err
		}
		var next []*nodeWork
		for k, nw := range active {
			split := BestSplit(hists[k], nw.g, nw.h, p.Split)
			if !split.Valid() {
				tree.SetLeaf(nw.id, LeafWeight(nw.g, nw.h, p.Split.Lambda))
				continue
			}
			threshold := bm.Mapper().Threshold(int(split.Feature), int(split.Bin))
			leftID, rightID := tree.AddSplit(nw.id, split.Feature, threshold, split.Gain)
			left, right, err := partition(bm, nw.insts, split.Feature, split.Bin)
			if err != nil {
				return nil, err
			}
			next = append(next,
				&nodeWork{id: leftID, insts: left, g: split.GL, h: split.HL},
				&nodeWork{id: rightID, insts: right, g: nw.g - split.GL, h: nw.h - split.HL},
			)
		}
		active = next
	}
	// Remaining active nodes at the depth limit become leaves.
	for _, nw := range active {
		tree.SetLeaf(nw.id, LeafWeight(nw.g, nw.h, p.Split.Lambda))
	}
	return tree, nil
}

// partition splits a node's instances: stored bin <= k or missing → left.
func partition(bm BinView, insts []int32, feature int32, bin int32) (left, right []int32, err error) {
	for _, i := range insts {
		goesLeft, err := GoesLeft(bm, i, feature, bin)
		if err != nil {
			return nil, nil, err
		}
		if goesLeft {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return left, right, nil
}

// GoesLeft reports whether instance i routes to the left child of a split
// on (feature, bin): stored values in bins <= bin go left, missing goes
// left.
func GoesLeft(bm BinView, i, feature, bin int32) (bool, error) {
	cols, bins, err := bm.Row(int(i))
	if err != nil {
		return false, err
	}
	lo, hi := 0, len(cols)
	for lo < hi {
		mid := (lo + hi) / 2
		if cols[mid] < feature {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(cols) && cols[lo] == feature {
		return int32(bins[lo]) <= bin, nil
	}
	return true, nil // missing
}

// BuildHistograms builds one histogram per instance list, parallelizing
// across nodes when there are many and across instance shards when there
// are few. It is shared with the federated engine, where Party B builds
// its plaintext histograms with exactly the local trainer's code.
func BuildHistograms(bm BinView, lists [][]int32, grads, hess []float64, workers int) ([]*Histogram, error) {
	nodes := make([]*nodeWork, len(lists))
	for k, l := range lists {
		nodes[k] = &nodeWork{insts: l}
	}
	if sv, ok := shardMajor(bm); ok && listsAscending(lists) {
		return buildLayerHistogramsSharded(sv, nodes, grads, hess, workers)
	}
	return buildLayerHistograms(bm, nodes, grads, hess, workers)
}

// errCollector retains the first error reported by a set of workers.
type errCollector struct {
	mu  sync.Mutex
	err error
}

func (c *errCollector) add(err error) {
	if err == nil {
		return
	}
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

func (c *errCollector) first() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// buildLayerHistograms builds one histogram per active node, parallelizing
// across nodes when the layer is wide and across instance shards when it
// is narrow (the root). The first view failure any worker hits wins; the
// partial layer is discarded.
func buildLayerHistograms(bm BinView, active []*nodeWork, grads, hess []float64, workers int) ([]*Histogram, error) {
	hists := make([]*Histogram, len(active))
	if len(active) >= workers {
		var wg sync.WaitGroup
		var ec errCollector
		sem := make(chan struct{}, workers)
		for k, nw := range active {
			wg.Add(1)
			sem <- struct{}{}
			go func(k int, nw *nodeWork) {
				defer wg.Done()
				defer func() { <-sem }()
				h := NewHistogram(bm.Mapper())
				ec.add(h.Accumulate(bm, nw.insts, grads, hess))
				hists[k] = h
			}(k, nw)
		}
		wg.Wait()
		if err := ec.first(); err != nil {
			return nil, err
		}
		return hists, nil
	}
	for k, nw := range active {
		h, err := shardedHistogram(bm, nw.insts, grads, hess, workers)
		if err != nil {
			return nil, err
		}
		hists[k] = h
	}
	return hists, nil
}

// shardedHistogram accumulates one node's histogram with instance-level
// parallelism.
func shardedHistogram(bm BinView, insts []int32, grads, hess []float64, workers int) (*Histogram, error) {
	if workers <= 1 || len(insts) < 1024 {
		h := NewHistogram(bm.Mapper())
		if err := h.Accumulate(bm, insts, grads, hess); err != nil {
			return nil, err
		}
		return h, nil
	}
	parts := make([]*Histogram, workers)
	var wg sync.WaitGroup
	var ec errCollector
	chunk := (len(insts) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= len(insts) {
			break
		}
		hi := lo + chunk
		if hi > len(insts) {
			hi = len(insts)
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			h := NewHistogram(bm.Mapper())
			ec.add(h.Accumulate(bm, insts[lo:hi], grads, hess))
			parts[w] = h
		}(w, lo, hi)
	}
	wg.Wait()
	if err := ec.first(); err != nil {
		return nil, err
	}
	var acc *Histogram
	for _, ph := range parts {
		if ph == nil {
			continue
		}
		if acc == nil {
			acc = ph
		} else {
			acc.Merge(ph)
		}
	}
	return acc, nil
}

// updateMarginsBinned adds each instance's leaf weight to its margin,
// routing through the binned view instead of raw values. Every internal
// node's threshold is a mapper cut, so precomputing its bin index lets a
// row walk the tree on stored bins alone; missing features route left,
// matching Tree.Predict.
func updateMarginsBinned(margins []float64, tree *Tree, bv BinView, eta float64, workers int) error {
	bins := splitBins(tree, bv.Mapper())
	var ec errCollector
	update := func(rows BinView, lo, hi int) {
		for i := lo; i < hi; i++ {
			cols, rowBins, err := rows.Row(i)
			if err != nil {
				ec.add(err)
				return
			}
			margins[i] += eta * predictBinnedRow(tree, bins, cols, rowBins)
		}
	}
	sv, ok := shardMajor(bv)
	if !ok {
		parallelRows(len(margins), workers, func(lo, hi int) { update(bv, lo, hi) })
		return ec.first()
	}
	// Like every other sweep of the tree, one shard at a time with the
	// workers inside it: spread over the row space they would each hold a
	// different shard, evict one another's at a tight budget, and reload
	// mid-sweep — loads beyond the one per shard this sweep is allowed.
	for s := 0; s < sv.NumShards() && ec.first() == nil; s++ {
		rows, err := sv.Shard(s)
		if err != nil {
			return err
		}
		lo, hi := sv.ShardRowRange(s)
		parallelRows(hi-lo, workers, func(a, b int) { update(rows, lo+a, lo+b) })
	}
	return ec.first()
}

// splitBins precomputes, for every internal node, the bin index of its
// threshold: Bin(f, Threshold(f,k)) == k because cuts are strictly
// increasing, so binned routing "rowBin <= bins[id]" is exactly the raw
// routing "v <= threshold".
func splitBins(t *Tree, m *BinMapper) []int32 {
	bins := make([]int32, len(t.Nodes))
	for id := range t.Nodes {
		n := &t.Nodes[id]
		if n.Feature >= 0 {
			bins[id] = int32(m.Bin(int(n.Feature), n.Threshold))
		}
	}
	return bins
}

// predictBinnedRow walks one tree over a row's stored (feature, bin)
// pairs (sorted by feature) and returns the leaf weight.
func predictBinnedRow(t *Tree, bins []int32, cols []int32, rowBins []uint8) float64 {
	id := int32(0)
	for {
		n := &t.Nodes[id]
		if n.Feature < 0 {
			return n.Weight
		}
		// Binary search the row's sorted feature list.
		lo, hi := 0, len(cols)
		for lo < hi {
			mid := (lo + hi) / 2
			if cols[mid] < n.Feature {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(cols) && cols[lo] == n.Feature {
			if int32(rowBins[lo]) <= bins[id] {
				id = n.Left
			} else {
				id = n.Right
			}
		} else {
			id = n.Left // missing
		}
	}
}

func parallelRows(n, workers int, fn func(lo, hi int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
