package core

import (
	"fmt"
	"time"
)

// buildTreeOptimistic grows one tree with the concurrent VF²Boost
// protocol of Section 4.2. Per layer:
//
//   - Phase 1 (tentative): B finds its own best splits (FindSplitB is
//     cheap — plaintext histograms) and immediately splits every node with
//     them, shipping tentative decisions so the passive parties start
//     building the next layer's histograms right away;
//   - Phase 2 (validation): B then receives and decrypts the passive
//     histograms of the *current* layer — concurrently with the passive
//     parties' next-layer construction — and validates each tentative
//     split. A node whose best split actually belongs to a passive party
//     is dirty: its tentative children are aborted (MsgDirty carries the
//     IDs so in-flight histogram sub-tasks stop), the owner answers with
//     the correct placement, and fresh children are created — the
//     roll-back-and-re-do mechanism of Figure 6. Every correction of a
//     layer is posted before any placement is awaited, so d dirty nodes
//     cost one round trip, not d.
//
// The expected dirty rate is D_A/(D_A+D_B) (validated in the Table 2
// benchmark), so when Party B is feature-rich almost all optimistic work
// survives.
func (b *activeParty) buildTreeOptimistic(t int) (*FedTree, []leafResult, error) {
	tree, root := b.startTree()
	active := []*bNode{root}
	var leaves []leafResult

	for layer := 0; layer < b.cfg.MaxDepth && len(active) > 0; layer++ {
		ownHists, err := b.buildOwnHistograms(active)
		if err != nil {
			return nil, nil, err
		}

		// Phase 1: tentative resolution from B's own splits only.
		type tentative struct {
			node            *bNode
			cand            candidate
			leftID, rightID int32
			left, right     []int32
			// A dirty node's corrected children, and the closer of the
			// span opened when its MsgDirty left.
			newLeft, newRight int32
			posted            func()
		}
		tents := make([]tentative, len(active))
		placed := make([]*nodeSplit, len(active))
		for k, nd := range active {
			tents[k] = tentative{node: nd, cand: b.ownBest(ownHists[k], nd)}
			if c := tents[k].cand; c.valid() {
				placed[k] = newNodeSplit(nd.insts, c.split.Feature, c.split.Bin)
			}
		}
		// One pass over B's shards places the whole layer.
		if err := b.units.routeNodes(b.view, placed); err != nil {
			return nil, nil, err
		}
		decs := make([]NodeDecision, 0, len(active))
		for k, nd := range active {
			tn := &tents[k]
			if tn.cand.valid() {
				tn.leftID, tn.rightID = b.allocID(), b.allocID()
				tn.left, tn.right = placed[k].left, placed[k].right
				decs = append(decs, NodeDecision{
					Node: nd.id, Action: ActionSplitB,
					LeftID: tn.leftID, RightID: tn.rightID,
					Placement: placed[k].bits, Count: len(nd.insts),
				})
			} else {
				decs = append(decs, NodeDecision{Node: nd.id, Action: ActionLeaf})
			}
		}
		for _, l := range b.links {
			if err := l.send(MsgDecisions{Tree: t, Layer: layer, Tentative: true, Nodes: decs}); err != nil {
				return nil, nil, err
			}
		}

		// Phase 2: validate against the passive parties' histograms while
		// they already work on layer+1. The first pass picks every node's
		// winner and posts the correction of a dirty node at once, so the
		// corrections of a layer share one round trip; the second pass
		// records the outcomes in node order.
		for k := range tents {
			tn := &tents[k]
			for pi := range b.links {
				c, err := b.passiveBest(pi, t, tn.node)
				if err != nil {
					return nil, nil, err
				}
				if c.valid() && (!tn.cand.valid() || betterCandidate(c, tn.cand)) {
					tn.cand = c
				}
			}
			if !tn.cand.valid() || tn.cand.party == len(b.links) {
				continue
			}
			// Dirty node: a passive party had the better split.
			b.stats.dirtyNodes.Add(1)
			tn.newLeft, tn.newRight = b.allocID(), b.allocID()
			if err := b.links[tn.cand.party].send(MsgDirty{
				Tree: t, Layer: layer, Node: tn.node.id,
				OldLeft: tn.leftID, OldRight: tn.rightID,
				LeftID: tn.newLeft, RightID: tn.newRight,
				Feature: tn.cand.split.Feature, Bin: tn.cand.split.Bin,
			}); err != nil {
				return nil, nil, err
			}
			tn.posted = b.rec.Span("B:AwaitPlacement", fmt.Sprintf("tree %d layer %d node %d", t, layer, tn.node.id))
		}

		var next []*bNode
		for k := range tents {
			tn := &tents[k]
			nd, best := tn.node, tn.cand
			switch {
			case !best.valid():
				// Tentative leaf confirmed.
				leaves = append(leaves, b.recordLeaf(tree, nd))
			case best.party == len(b.links):
				// Tentative split confirmed as-is.
				b.recordSplitB(tree, nd, best, tn.leftID, tn.rightID)
				next = append(next, b.childNodes(nd.id, tn.leftID, tn.left, tn.rightID, tn.right)...)
			default:
				owner := best.party
				idle := time.Now()
				pl, err := b.pumps[owner].placementFor(t, nd.id)
				addDur(&b.stats.bIdleTime, time.Since(idle))
				tn.posted()
				if err != nil {
					return nil, nil, err
				}
				left, right := applyPlacement(nd.insts, pl.Bits)
				relay := NodeDecision{
					Node: nd.id, Action: ActionSplitA, Owner: owner,
					LeftID: tn.newLeft, RightID: tn.newRight,
					Placement: pl.Bits, Count: len(nd.insts),
					AbortLeft: tn.leftID, AbortRight: tn.rightID,
				}
				for pi, l := range b.links {
					if pi == owner {
						continue
					}
					if err := l.send(MsgDecisions{Tree: t, Layer: layer, Nodes: []NodeDecision{relay}}); err != nil {
						return nil, nil, err
					}
				}
				b.recordSplitA(tree, nd, best, tn.newLeft, tn.newRight)
				next = append(next, b.childNodes(nd.id, tn.newLeft, left, tn.newRight, right)...)
			}
		}
		active = next
	}

	for _, nd := range active {
		leaves = append(leaves, b.recordLeaf(tree, nd))
	}
	return tree, leaves, nil
}
