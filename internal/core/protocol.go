package core

import (
	"errors"
	"fmt"
	"sync"

	"vf2boost/internal/gbdt"
)

// buildTree grows one tree on Party B, a layer at a time: B's own
// plaintext histograms, every node's winner against the passive parties'
// histograms, then the winners settled — a split B owns placed by B, one a
// passive party owns placed by its owner and relayed by B to the others.
//
// With speculate, the concurrent protocol of Section 4.2, B first splits
// every node on its own best split and posts those tentative decisions, so
// the passive parties build the next layer's histograms while B decrypts
// this one. A node a passive party then wins is dirty: its correction
// leaves the moment the node is validated and aborts the tentative
// children, so the corrections of a layer share one round trip (the
// roll-back-and-re-do of Figure 6). Without speculation nothing is posted
// before validation, and the final decisions go out once every node is
// validated: the sequential VF-GBDT schedule of Figure 5 (top).
func (b *activeParty) buildTree(t int, speculate bool) (*FedTree, []leafResult, error) {
	tree, root := b.startTree()
	active := []*bNode{root}
	var leaves []leafResult

	for layer := 0; layer < b.cfg.MaxDepth && len(active) > 0; layer++ {
		b.prefetch(t, active)
		ownHists, err := b.buildOwnHistograms(active)
		if err != nil {
			return nil, nil, err
		}
		nodes := make([]layerNode, len(active))
		for k, nd := range active {
			nodes[k] = layerNode{node: nd, own: b.ownBest(ownHists[k], nd)}
		}
		if speculate {
			if err := b.post(t, layer, nodes, true); err != nil {
				return nil, nil, err
			}
		}
		awaiting := func(n *layerNode) {
			n.posted = b.rec.Span("B:AwaitPlacement", fmt.Sprintf("tree %d layer %d node %d", t, layer, n.node.id))
		}

		// Validation, in node order. A dirty node's correction is posted at
		// once, so the corrections of the layer are in flight together.
		for k := range nodes {
			n := &nodes[k]
			n.best = n.own
			for pi := range b.links {
				c, err := b.passiveBest(pi, t, n.node)
				if err != nil {
					return nil, nil, err
				}
				if c.valid() && (!n.best.valid() || betterCandidate(c, n.best)) {
					n.best = c
				}
			}
			if !speculate || !b.passiveWon(n.best) {
				continue
			}
			b.stats.dirtyNodes.Add(1)
			n.abortLeft, n.abortRight = n.leftID, n.rightID
			n.leftID, n.rightID = b.allocID(), b.allocID()
			if err := b.links[n.best.party].send(MsgDirty{
				Tree: t, Layer: layer, Node: n.node.id,
				OldLeft: n.abortLeft, OldRight: n.abortRight,
				LeftID: n.leftID, RightID: n.rightID,
				Feature: n.best.split.Feature, Bin: n.best.split.Bin,
			}); err != nil {
				return nil, nil, err
			}
			awaiting(n)
		}
		if !speculate {
			if err := b.post(t, layer, nodes, false); err != nil {
				return nil, nil, err
			}
			for k := range nodes {
				if b.passiveWon(nodes[k].best) {
					awaiting(&nodes[k])
				}
			}
		}

		// Settle in node order. Without speculation the children of B's
		// splits lead the next layer and those of passive splits follow;
		// with it the next layer keeps node order.
		var next, later []*bNode
		for k := range nodes {
			n := &nodes[k]
			switch {
			case !n.best.valid():
				leaves = append(leaves, b.recordLeaf(tree, n.node))
			case n.best.party == len(b.links):
				b.recordSplitB(tree, n.node, n.best, n.leftID, n.rightID)
				next = append(next, b.childNodes(n.node.id, n.leftID, n.split.left, n.rightID, n.split.right)...)
			default:
				children, err := b.awaitPlacement(tree, t, layer, n)
				if err != nil {
					return nil, nil, err
				}
				if speculate {
					next = append(next, children...)
				} else {
					later = append(later, children...)
				}
			}
		}
		active = append(next, later...)
	}

	for _, nd := range active {
		leaves = append(leaves, b.recordLeaf(tree, nd))
	}
	return tree, leaves, nil
}

// layerNode is one node of the layer Party B is deciding.
type layerNode struct {
	node      *bNode
	own, best candidate // B's own best split; the validated winner
	// leftID and rightID are the children of the split posted for the
	// node, and split is B's placement of it when the split is B's own;
	// abortLeft and abortRight are the tentative children a correction
	// replaced.
	split                 *nodeSplit
	leftID, rightID       int32
	abortLeft, abortRight int32
	posted                func() // closes the node's B:AwaitPlacement span
}

// passiveWon reports whether a passive party owns a split.
func (b *activeParty) passiveWon(c candidate) bool {
	return c.valid() && c.party != len(b.links)
}

// post sends a layer's decisions and allocates, in node order, the
// children of every split it posts. Tentative, they are B's own best
// splits, sent to every party; final, the validated winners, where a
// passive party's split goes only to its owner, with the feature and bin
// no other party may see. B places the splits it owns in one pass over its
// shards.
func (b *activeParty) post(t, layer int, nodes []layerNode, tentative bool) error {
	choice := func(n *layerNode) candidate {
		if tentative {
			return n.own
		}
		return n.best
	}
	placed := make([]*nodeSplit, len(nodes))
	for k := range nodes {
		if c := choice(&nodes[k]); c.valid() && c.party == len(b.links) {
			placed[k] = newNodeSplit(nodes[k].node.insts, c.split.Feature, c.split.Bin)
		}
	}
	if err := b.units.routeNodes(b.view, placed); err != nil {
		return err
	}
	decisions := make([][]NodeDecision, len(b.links))
	for k := range nodes {
		n, c := &nodes[k], choice(&nodes[k])
		d := NodeDecision{Node: n.node.id, Action: ActionLeaf}
		if c.valid() {
			n.leftID, n.rightID = b.allocID(), b.allocID()
			d.LeftID, d.RightID = n.leftID, n.rightID
		}
		if b.passiveWon(c) {
			d.Action, d.Owner, d.Feature, d.Bin = ActionSplitA, c.party, c.split.Feature, c.split.Bin
			decisions[c.party] = append(decisions[c.party], d)
			continue
		}
		if n.split = placed[k]; n.split != nil {
			d.Action, d.Placement, d.Count = ActionSplitB, n.split.bits, len(n.node.insts)
		}
		for pi := range decisions {
			decisions[pi] = append(decisions[pi], d)
		}
	}
	for pi, l := range b.links {
		if len(decisions[pi]) == 0 {
			continue
		}
		if err := l.send(MsgDecisions{Tree: t, Layer: layer, Tentative: tentative, Nodes: decisions[pi]}); err != nil {
			return err
		}
	}
	return nil
}

// awaitPlacement waits for the placement of a split a passive party won,
// checks that it covers the node, relays it to every other party and
// records the split; it returns the split's children. A placement that
// does not fit its node ends the session on every link.
func (b *activeParty) awaitPlacement(tree *FedTree, t, layer int, n *layerNode) ([]*bNode, error) {
	owner := n.best.party
	f, err := b.await(owner, placementKey(t, n.node.id))
	n.posted()
	if err != nil {
		return nil, err
	}
	pl := f.(MsgPlacement)
	left, right, err := applyPlacement(n.node.insts, pl.Bits)
	if err != nil {
		err = fmt.Errorf("core: party %d placement for tree %d node %d: %w", owner, t, n.node.id, err)
		b.abort(err)
		return nil, err
	}
	relay := NodeDecision{
		Node: n.node.id, Action: ActionSplitA, Owner: owner,
		LeftID: n.leftID, RightID: n.rightID,
		Placement: pl.Bits, Count: len(n.node.insts),
		AbortLeft: n.abortLeft, AbortRight: n.abortRight,
	}
	for pi, l := range b.links {
		if pi == owner {
			continue
		}
		if err := l.send(MsgDecisions{Tree: t, Layer: layer, Nodes: []NodeDecision{relay}}); err != nil {
			return nil, err
		}
	}
	b.recordSplitA(tree, n.node, n.best, n.leftID, n.rightID)
	return b.childNodes(n.node.id, n.leftID, left, n.rightID, right), nil
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
// The passive parties build only the child with fewer instances
// (passiveParty.childReady applies the same rule to the same lists); the
// other is marked derived.
func (b *activeParty) childNodes(parent, leftID int32, left []int32, rightID int32, right []int32) []*bNode {
	lg, lh := b.childStats(left)
	rg, rh := b.childStats(right)
	leftDerived := len(right) < len(left)
	return []*bNode{
		{id: leftID, insts: left, g: lg, h: lh, parent: parent, sibling: rightID, derived: leftDerived},
		{id: rightID, insts: right, g: rg, h: rh, parent: parent, sibling: leftID, derived: !leftDerived},
	}
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
