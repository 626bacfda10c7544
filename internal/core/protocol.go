package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vf2boost/internal/gbdt"
)

// buildTreeSequential grows one tree with the baseline VF-GBDT protocol:
// every layer is a strict sequence of (build own histograms; wait for all
// passive histograms; decrypt; decide; synchronize placements) — the
// mutual-waiting pattern of Figure 5 (top).
func (b *activeParty) buildTreeSequential(t int) (*FedTree, []leafResult, error) {
	tree, root := b.startTree()
	active := []*bNode{root}
	var leaves []leafResult

	for layer := 0; layer < b.cfg.MaxDepth && len(active) > 0; layer++ {
		ownHists, err := b.buildOwnHistograms(active)
		if err != nil {
			return nil, nil, err
		}

		decisions := make([][]NodeDecision, len(b.links))
		type pendingA struct {
			node            *bNode
			cand            candidate
			leftID, rightID int32
			posted          func() // closes the node's B:AwaitPlacement span
		}
		var pending []pendingA
		var next []*bNode

		// Every node's winner first; the nodes Party B splits are then placed
		// in one pass over its shards.
		bests := make([]candidate, len(active))
		placed := make([]*nodeSplit, len(active))
		for k, nd := range active {
			best := b.ownBest(ownHists[k], nd)
			for pi := range b.links {
				c, err := b.passiveBest(pi, t, nd)
				if err != nil {
					return nil, nil, err
				}
				if c.valid() && (!best.valid() || betterCandidate(c, best)) {
					best = c
				}
			}
			bests[k] = best
			if best.valid() && best.party == len(b.links) {
				placed[k] = newNodeSplit(nd.insts, best.split.Feature, best.split.Bin)
			}
		}
		if err := b.units.routeNodes(b.view, placed); err != nil {
			return nil, nil, err
		}

		for k, nd := range active {
			best := bests[k]
			switch {
			case !best.valid():
				leaves = append(leaves, b.recordLeaf(tree, nd))
				for pi := range decisions {
					decisions[pi] = append(decisions[pi], NodeDecision{Node: nd.id, Action: ActionLeaf})
				}
			case best.party == len(b.links):
				// Party B owns the split.
				leftID, rightID := b.allocID(), b.allocID()
				b.recordSplitB(tree, nd, best, leftID, rightID)
				for pi := range decisions {
					decisions[pi] = append(decisions[pi], NodeDecision{
						Node: nd.id, Action: ActionSplitB,
						LeftID: leftID, RightID: rightID,
						Placement: placed[k].bits, Count: len(nd.insts),
					})
				}
				next = append(next, b.childNodes(nd.id, leftID, placed[k].left, rightID, placed[k].right)...)
			default:
				// A passive party owns the split: tell the owner now,
				// relay the placement to the rest once it arrives.
				leftID, rightID := b.allocID(), b.allocID()
				b.recordSplitA(tree, nd, best, leftID, rightID)
				decisions[best.party] = append(decisions[best.party], NodeDecision{
					Node: nd.id, Action: ActionSplitA, Owner: best.party,
					LeftID: leftID, RightID: rightID,
					Feature: best.split.Feature, Bin: best.split.Bin,
				})
				pending = append(pending, pendingA{node: nd, cand: best, leftID: leftID, rightID: rightID})
			}
		}

		for pi, l := range b.links {
			if len(decisions[pi]) > 0 {
				if err := l.send(MsgDecisions{Tree: t, Layer: layer, Nodes: decisions[pi]}); err != nil {
					return nil, nil, err
				}
			}
		}

		// The owners have their decisions: every placement is in flight.
		for i := range pending {
			pending[i].posted = b.rec.Span("B:AwaitPlacement", fmt.Sprintf("tree %d layer %d node %d", t, layer, pending[i].node.id))
		}
		for _, pa := range pending {
			idle := time.Now()
			pl, err := b.pumps[pa.cand.party].placementFor(t, pa.node.id)
			addDur(&b.stats.bIdleTime, time.Since(idle))
			pa.posted()
			if err != nil {
				return nil, nil, err
			}
			left, right := applyPlacement(pa.node.insts, pl.Bits)
			relay := NodeDecision{
				Node: pa.node.id, Action: ActionSplitA, Owner: pa.cand.party,
				LeftID: pa.leftID, RightID: pa.rightID,
				Placement: pl.Bits, Count: len(pa.node.insts),
			}
			for pi, l := range b.links {
				if pi == pa.cand.party {
					continue
				}
				if err := l.send(MsgDecisions{Tree: t, Layer: layer, Nodes: []NodeDecision{relay}}); err != nil {
					return nil, nil, err
				}
			}
			next = append(next, b.childNodes(pa.node.id, pa.leftID, left, pa.rightID, right)...)
		}
		active = next
	}

	for _, nd := range active {
		leaves = append(leaves, b.recordLeaf(tree, nd))
	}
	return tree, leaves, nil
}

// startTree resets per-tree state and returns the root bookkeeping.
func (b *activeParty) startTree() (*FedTree, *bNode) {
	b.nextID = rootID
	tree := NewFedTree(rootID)
	all := allInstances(b.rows)
	g0, h0 := b.childStats(all)
	return tree, &bNode{id: rootID, insts: all, g: g0, h: h0}
}

// recordLeaf finalizes a node as a leaf and returns its margin update.
func (b *activeParty) recordLeaf(tree *FedTree, nd *bNode) leafResult {
	w := gbdt.LeafWeight(nd.g, nd.h, b.cfg.Split.Lambda)
	tree.Nodes[nd.id] = &FedNode{Owner: OwnerLeaf, Weight: w}
	return leafResult{insts: nd.insts, weight: w}
}

// recordSplitB registers a Party-B-owned split in B's fragment (B keeps
// the feature and threshold — they are its own data).
func (b *activeParty) recordSplitB(tree *FedTree, nd *bNode, c candidate, leftID, rightID int32) {
	tree.Nodes[nd.id] = &FedNode{
		Owner:     b.model.Party,
		Feature:   c.split.Feature,
		Threshold: b.mapper.Threshold(int(c.split.Feature), int(c.split.Bin)),
		Left:      leftID,
		Right:     rightID,
		Gain:      c.split.Gain,
	}
	b.stats.splitsByB.Add(1)
}

// recordSplitA registers a passive-owned split: B learns only the owner
// and the children, never the feature or threshold.
func (b *activeParty) recordSplitA(tree *FedTree, nd *bNode, c candidate, leftID, rightID int32) {
	tree.Nodes[nd.id] = &FedNode{
		Owner: c.party,
		Left:  leftID,
		Right: rightID,
		Gain:  c.split.Gain,
	}
	b.stats.splitsByA.Add(1)
}

// childNodes wraps fresh child bookkeeping with exact gradient totals.
// Under HistogramSubtraction the passive parties build only the child
// with fewer instances (passiveParty.childReady applies the same rule to
// the same lists); the other is marked derived.
func (b *activeParty) childNodes(parent, leftID int32, left []int32, rightID int32, right []int32) []*bNode {
	lg, lh := b.childStats(left)
	rg, rh := b.childStats(right)
	l := &bNode{id: leftID, insts: left, g: lg, h: lh, parent: parent, sibling: rightID}
	r := &bNode{id: rightID, insts: right, g: rg, h: rh, parent: parent, sibling: leftID}
	if b.cfg.HistogramSubtraction {
		l.derived = len(right) < len(left)
		r.derived = !l.derived
	}
	return []*bNode{l, r}
}

// allInstances is the root node's instance list, [0, n).
func allInstances(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// nodeSplit is one node a party splits on a feature of its own: the
// request, and once routeNodes has run the placement — the bitmap over
// insts (bit set = left) and the two child lists, in instance order.
type nodeSplit struct {
	insts        []int32
	feature, bin int32
	bits         []byte
	left, right  []int32
}

func newNodeSplit(insts []int32, feature, bin int32) *nodeSplit {
	return &nodeSplit{insts: insts, feature: feature, bin: bin, bits: make([]byte, (len(insts)+7)/8)}
}

// routeNodes places the instances of every split (nil entries: nodes with
// nothing to place) in one pass over the view's shards, a unit per node
// and shard on the party's queue. A node's runs arrive in ascending order,
// so its bitmap and child lists come out as a walk of the whole list would
// have left them.
func (q unitQueue) routeNodes(view gbdt.BinView, splits []*nodeSplit) error {
	lists := make([][]int32, len(splits))
	for k, sp := range splits {
		if sp != nil {
			lists[k] = sp.insts
		}
	}
	return gbdt.SweepShards(view, lists, q.run, func(rows gbdt.BinView, k, lo, hi int) error {
		sp := splits[k]
		for at := lo; at < hi; at++ {
			i := sp.insts[at]
			goesLeft, err := gbdt.GoesLeft(rows, i, sp.feature, sp.bin)
			if err != nil {
				return err
			}
			if goesLeft {
				sp.bits[at/8] |= 1 << (at % 8)
				sp.left = append(sp.left, i)
			} else {
				sp.right = append(sp.right, i)
			}
		}
		return nil
	})
}

// errTaskAborted is what do returns once its task was aborted.
var errTaskAborted = errors.New("core: histogram task aborted")

// unitQueue is a party's worker budget, one slot per worker: whatever the
// party computes in parallel — on a passive party the accumulation sweep,
// the per-feature finalizes and the per-ciphertext packing chains of every
// in-flight node and of the root; on Party B the encryptions and
// decryptions — runs as units that each hold a slot only while they run.
// So the party never exceeds cfg.Workers, and no slot idles while any job
// has an unclaimed unit: the slot a short node frees joins the long one.
type unitQueue chan struct{}

// do runs fn over [0, n) on the party's slots and returns once every unit
// has run or been dropped: the first error — or errTaskAborted, once the
// task (nil where nothing aborts: roots, Party B) is aborted — drops the
// job's unclaimed units. A unit's result must not depend on which
// goroutine runs it or when.
func (q unitQueue) do(task *histTask, n int, fn func(i int) error) (first error) {
	var mu sync.Mutex
	next := 0
	// claim files the outcome of the caller's last unit and claims its next
	// one; -1 when none is left to run.
	claim := func(last error) int {
		mu.Lock()
		defer mu.Unlock()
		if first == nil {
			first = last
		}
		if first == nil && task != nil && task.aborted.Load() {
			first = errTaskAborted
		}
		if first != nil || next == n {
			return -1
		}
		next++
		return next - 1
	}
	var wg sync.WaitGroup
	for w := min(n, cap(q)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			for i := 0; i >= 0; {
				q <- struct{}{}
				if i = claim(err); i >= 0 {
					err = fn(i)
				}
				<-q
			}
		}()
	}
	wg.Wait()
	return first
}

// run is do for units nothing aborts — the runner gbdt.SweepShards takes.
func (q unitQueue) run(n int, unit func(i int) error) error { return q.do(nil, n, unit) }
