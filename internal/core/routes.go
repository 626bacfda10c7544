package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"vf2boost/internal/dataset"
)

// Compiled routing tables. Both ways of scoring a model — in-process
// prediction over the glued fragments, and the scoring rounds of a
// federated scoring session — route through the same compiled form of a
// fragment, built once per fragment:
//
//   - the scoring side lists the splits the fragment's party owns, in
//     (tree, ascending node id) order, each with a dense feature slot and
//     its threshold. A block of rows is gathered once into a column per
//     feature slot, and each split writes its routing bitmap in one pass
//     over its column. This is the only place a split compares a value.
//   - the routing side (Party B's) flattens every tree into an array of
//     nodes addressed by index. Every split reads a bitmap: another
//     party's from that party's answer, the table party's own from the
//     column pass over its own block. A hop is a bit lookup and an index.
//     It also ties every other party's split to the nearest split above
//     it that the same party owns, which is what lets that party answer
//     with only the bits the table reads (reach.go).
//
// Split semantics are the model's everywhere: a stored value <= threshold
// goes left, and a missing value goes left.

// ErrModelStructure marks a fragment or model that cannot be compiled: a
// missing root, a dangling child, a cycle, a path deeper than
// maxRouteDepth, an invalid owner, or a split missing from its owner.
var ErrModelStructure = errors.New("core: malformed model")

// ErrRoutingBits marks routing or placement bitmaps a party cannot use: a
// bitmap whose length is not ⌈rows/8⌉ bytes — in training, ⌈n/8⌉ for the
// n instances of the node a placement splits — or a split a present party
// sent none for.
var ErrRoutingBits = errors.New("core: malformed routing bits")

// maxRouteDepth bounds a root-to-leaf path. A deeper tree is refused at
// compile time, which is also what makes every compiled walk terminate.
const maxRouteDepth = 64

// routeBlock is how many rows are gathered at a time. It is a multiple of
// 8, so a block's routing bits fill whole bitmap bytes, and it bounds the
// per-block buffers however large the shard is.
const routeBlock = 256

// blockBytes is the stride of one bitmap slot in a block's bit buffer.
const blockBytes = routeBlock / 8

// routeNode is one node of a compiled tree; a leaf's weight is in
// RouteTable.weights at the same index.
type routeNode struct {
	kids [2]int32 // child indices into RouteTable.nodes: [right, left]
	// at is where the split's bitmap starts in a block's bit buffer
	// (bitmap slot × blockBytes); -1 for a leaf.
	at int32
}

// ownedSplit is one split the table party evaluates itself.
type ownedSplit struct {
	tree, node int32
	feature    int32 // feature slot
	threshold  float64
}

// reachLink ties a split to the nearest split above it that the same
// party owns; splits of other parties in between do not count. above
// indexes that split in the same list (-1: there is none, and every row
// reaches the split as far as its party can tell), and left says which
// side of it the split lies on.
type reachLink struct {
	above int32
	left  bool
}

// RouteTable is the compiled, immutable form of one model fragment. It is
// safe for concurrent use; all per-round state lives in the caller.
type RouteTable struct {
	party int

	// Scoring side: every split the party owns, and per tree the root's
	// node id. up[i] links owned[i] to the party's split whose child it is
	// in the fragment (above -1: none is).
	owned    []ownedSplit
	features []int32 // ascending feature ids the owned splits read, by slot
	rootIDs  []int32
	up       []reachLink

	// Answer side, set by Bind: answer lists the trees of a round's answer
	// in order, each packing owned[lo:hi] (the splits Party B reads, parents
	// first), and reach[i] is owned[i]'s link within that order.
	bound  bool
	answer []answerTree
	reach  []reachLink

	// Routing side; routable is false for a table built by
	// CompileOwnedSplits. Bitmap slots [0, len(slotKeys)) read other
	// parties' answers, tree by tree; slot len(slotKeys)+i reads the
	// column pass of reached[i], one of the party's own splits.
	routable bool
	nodes    []routeNode
	weights  []float64                // per node, the leaf weight (0 for a split)
	roots    []int32                  // per tree, the root's index in nodes
	slotLo   []int32                  // per tree, its first answer slot; slotLo[len(roots)] ends the last
	owners   [][]int                  // per tree, the other parties owning any split in it
	slotKeys []RouteKey               // per answer slot, the split it reads
	slotOf   map[int]map[uint64]int32 // party → treeNode(tree, node) → answer slot
	links    []reachLink              // per answer slot, its link to another slot of the same party
	reached  []ownedSplit             // the party's own splits the trees route through
}

// CompileOwnedSplits builds the scoring side of a passive party's
// fragment: what the party needs to answer rounds once Bind gives it Party
// B's reach links. The fragment holds the party's own splits and their
// children's ids (the rest of the structure is B's), and those links must
// be sound: no split names itself or one node twice as its children, no
// node is the child of two of the party's splits, and no chain of them is
// a cycle or lies deeper than maxRouteDepth. A violation, or an empty
// tree, is an ErrModelStructure naming the tree (and node). The table
// cannot route.
func CompileOwnedSplits(frag *PartyModel) (*RouteTable, error) {
	for ti, tree := range frag.Trees {
		if tree == nil {
			return nil, fmt.Errorf("%w: tree %d is empty", ErrModelStructure, ti)
		}
	}
	t := &RouteTable{party: frag.Party}
	t.compileOwned(frag)
	return t, t.checkOwnedLinks(frag)
}

// checkOwnedLinks validates the links among the party's own splits and
// fills t.up.
func (t *RouteTable) checkOwnedLinks(frag *PartyModel) error {
	index := make(map[uint64]int32, len(t.owned))
	for i, o := range t.owned {
		key, _ := treeNode(int(o.tree), o.node)
		index[key] = int32(i)
	}
	t.up = make([]reachLink, len(t.owned))
	for i := range t.up {
		t.up[i].above = -1
	}
	named := make(map[uint64]bool) // (tree, node) some split names as a child
	for i, o := range t.owned {
		tree := frag.Trees[o.tree]
		nd := tree.Nodes[o.node]
		for _, c := range [2]int32{nd.Left, nd.Right} {
			key, _ := treeNode(int(o.tree), c)
			if c == o.node || named[key] || nd.Left == nd.Right {
				return fmt.Errorf("%w: tree %d node %d reaches node %d twice (a cycle or shared subtree)", ErrModelStructure, o.tree, o.node, c)
			}
			named[key] = true
			if k, ok := index[key]; ok {
				t.up[k] = reachLink{above: int32(i), left: c == nd.Left}
			}
		}
	}
	for i, o := range t.owned {
		depth := 0
		for a := t.up[i].above; a >= 0; a = t.up[a].above {
			if a == int32(i) {
				return fmt.Errorf("%w: tree %d node %d reaches node %d twice (a cycle or shared subtree)", ErrModelStructure, o.tree, o.node, o.node)
			}
			if depth++; depth > maxRouteDepth {
				return fmt.Errorf("%w: tree %d node %d lies deeper than %d", ErrModelStructure, o.tree, o.node, maxRouteDepth)
			}
		}
	}
	return nil
}

// CompileFragment builds both sides of a fragment that holds the full tree
// structure (Party B's). Every tree must have its root, every split both
// children, and no node may be reached twice or lie deeper than
// maxRouteDepth; a violation is an ErrModelStructure naming the tree and
// node.
func CompileFragment(frag *PartyModel) (*RouteTable, error) {
	return compileFragment(frag, frag.Party)
}

// compileFragment compiles frag with party as the owner of the splits it
// evaluates itself.
func compileFragment(frag *PartyModel, party int) (*RouteTable, error) {
	t := &RouteTable{party: party, routable: true, slotOf: make(map[int]map[uint64]int32)}
	tc := &treeCompiler{featSlot: t.compileOwned(frag)}
	t.roots = make([]int32, len(frag.Trees))
	t.slotLo = make([]int32, len(frag.Trees)+1)
	t.owners = make([][]int, len(frag.Trees))
	for ti, tree := range frag.Trees {
		t.slotLo[ti] = int32(len(t.slotKeys))
		if err := t.compileTree(ti, tree, tc); err != nil {
			return nil, err
		}
	}
	t.slotLo[len(frag.Trees)] = int32(len(t.slotKeys))
	for i, ni := range tc.own {
		t.nodes[ni].at = int32(len(t.slotKeys)+i) * blockBytes
	}
	return t, nil
}

// treeCompiler is compileTree's state across trees: the feature slots,
// the indices of the party's own splits (their bitmap slots are numbered
// once every tree is in), and per node index its parent's index and
// whether it is that parent's left child.
type treeCompiler struct {
	featSlot map[int32]int32
	own      []int32
	up       []int32
	left     []bool
}

// treeNode packs a (tree, node) address into one map key; ok is false for
// a tree index no table can hold.
func treeNode(tree int, node int32) (key uint64, ok bool) {
	if tree < 0 || tree > math.MaxInt32 {
		return 0, false
	}
	return uint64(tree)<<32 | uint64(uint32(node)), true
}

// answerSlot returns the answer slot reading party's split (tree, node).
func (t *RouteTable) answerSlot(party, tree int, node int32) (int32, bool) {
	key, ok := treeNode(tree, node)
	if !ok {
		return 0, false
	}
	s, ok := t.slotOf[party][key]
	return s, ok
}

// compileOwned fills the scoring side and returns the feature → slot map.
func (t *RouteTable) compileOwned(frag *PartyModel) map[int32]int32 {
	featSlot := make(map[int32]int32)
	t.rootIDs = make([]int32, len(frag.Trees))
	for ti, tree := range frag.Trees {
		if tree == nil {
			continue
		}
		t.rootIDs[ti] = tree.Root
		var ids []int32
		for id, nd := range tree.Nodes {
			if nd != nil && nd.Owner == t.party {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
		for _, id := range ids {
			nd := tree.Nodes[id]
			if _, ok := featSlot[nd.Feature]; !ok {
				featSlot[nd.Feature] = 0
				t.features = append(t.features, nd.Feature)
			}
			t.owned = append(t.owned, ownedSplit{tree: int32(ti), node: id, feature: nd.Feature, threshold: nd.Threshold})
		}
	}
	sort.Slice(t.features, func(a, b int) bool { return t.features[a] < t.features[b] })
	for s, f := range t.features {
		featSlot[f] = int32(s)
	}
	for i := range t.owned {
		t.owned[i].feature = featSlot[t.owned[i].feature]
	}
	return featSlot
}

// compileTree flattens tree ti depth-first from its root, validating the
// structure as it goes. Every tree is laid out parents first, and so are
// the answer slots it adds.
func (t *RouteTable) compileTree(ti int, tree *FedTree, tc *treeCompiler) error {
	if tree == nil {
		return fmt.Errorf("%w: tree %d is empty", ErrModelStructure, ti)
	}
	owners := make(map[int]bool)
	for _, nd := range tree.Nodes {
		if nd != nil && nd.Owner != OwnerLeaf && nd.Owner != t.party {
			owners[nd.Owner] = true
		}
	}
	for p := range owners {
		t.owners[ti] = append(t.owners[ti], p)
	}
	sort.Ints(t.owners[ti])

	if tree.Nodes[tree.Root] == nil {
		return fmt.Errorf("%w: tree %d root %d missing", ErrModelStructure, ti, tree.Root)
	}
	// Each stack entry is a node to place and the parent link that gets
	// its index (parent -1: the root; kid 0 right, 1 left).
	type pending struct {
		id, depth, parent, kid int32
	}
	reached := map[int32]bool{tree.Root: true}
	stack := []pending{{id: tree.Root, parent: -1}}
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := tree.Nodes[p.id]
		idx := int32(len(t.nodes))
		if p.parent < 0 {
			t.roots[ti] = idx
		} else {
			t.nodes[p.parent].kids[p.kid] = idx
		}
		rn := routeNode{at: -1}
		weight := 0.0
		switch {
		case nd.Owner == OwnerLeaf:
			weight = nd.Weight
		case nd.Owner == t.party:
			tc.own = append(tc.own, idx)
			t.reached = append(t.reached, ownedSplit{tree: int32(ti), node: p.id, feature: tc.featSlot[nd.Feature], threshold: nd.Threshold})
		case nd.Owner >= 0:
			slot := int32(len(t.slotKeys))
			rn.at = slot * blockBytes
			if t.slotOf[nd.Owner] == nil {
				t.slotOf[nd.Owner] = make(map[uint64]int32)
			}
			key, _ := treeNode(ti, p.id)
			t.slotOf[nd.Owner][key] = slot
			t.slotKeys = append(t.slotKeys, RouteKey{Party: nd.Owner, Tree: ti, Node: p.id})
			t.links = append(t.links, t.linkAbove(tc, nd.Owner, p.parent, p.kid == 1))
		default:
			return fmt.Errorf("%w: tree %d node %d has invalid owner %d", ErrModelStructure, ti, p.id, nd.Owner)
		}
		t.nodes = append(t.nodes, rn)
		t.weights = append(t.weights, weight)
		tc.up = append(tc.up, p.parent)
		tc.left = append(tc.left, p.kid == 1)
		if nd.Owner == OwnerLeaf {
			continue
		}
		if p.depth >= maxRouteDepth {
			return fmt.Errorf("%w: tree %d node %d lies deeper than %d", ErrModelStructure, ti, p.id, maxRouteDepth)
		}
		// Push the right child first so the left subtree is laid out right
		// after its parent.
		for kid, c := range [2]int32{nd.Right, nd.Left} {
			if tree.Nodes[c] == nil {
				return fmt.Errorf("%w: tree %d node %d has dangling child %d", ErrModelStructure, ti, p.id, c)
			}
			if reached[c] {
				return fmt.Errorf("%w: tree %d node %d reaches node %d twice (a cycle or shared subtree)", ErrModelStructure, ti, p.id, c)
			}
			reached[c] = true
			stack = append(stack, pending{id: c, depth: p.depth + 1, parent: idx, kid: int32(kid)})
		}
	}
	return nil
}

// linkAbove finds the nearest answer slot of party above a node being
// placed under node index parent (on its left side when left): the walk
// skips every split of another party, and the table party's own.
func (t *RouteTable) linkAbove(tc *treeCompiler, party int, parent int32, left bool) reachLink {
	for a := parent; a >= 0; a, left = tc.up[a], tc.left[a] {
		if at := t.nodes[a].at; at >= 0 && t.slotKeys[at/blockBytes].Party == party {
			return reachLink{above: at / blockBytes, left: left}
		}
	}
	return reachLink{above: -1}
}

// Party returns the party whose own splits the table evaluates.
func (t *RouteTable) Party() int { return t.party }

// colBlock is a block of rows gathered column by column: for feature
// slot s and block row j, vals[s*n+j] is the stored value, -Inf when
// there is none (so it goes left at every threshold but NaN), and
// has[s*n+j] says whether there is one.
type colBlock struct {
	n    int
	vals []float64
	has  []bool
}

// gather loads round positions [lo, hi) — rows[k], or row k itself when
// rows is nil — restricted to features.
func (c *colBlock) gather(features []int32, data *dataset.Dataset, rows []int32, lo, hi int) {
	n := hi - lo
	size := len(features) * n
	if cap(c.vals) < size {
		c.vals = make([]float64, size)
		c.has = make([]bool, size)
	}
	c.n, c.vals, c.has = n, c.vals[:size], c.has[:size]
	if len(features) == 0 {
		return
	}
	for i := range c.vals {
		c.vals[i] = math.Inf(-1)
	}
	clear(c.has)
	for j := 0; j < n; j++ {
		r := lo + j
		if rows != nil {
			r = int(rows[r])
		}
		cols, vals := data.Row(r)
		// Both lists ascend: one merge finds every feature the row stores.
		for s, e := 0, 0; s < len(features) && e < len(cols); {
			switch {
			case cols[e] < features[s]:
				e++
			case cols[e] > features[s]:
				s++
			default:
				c.vals[s*n+j], c.has[s*n+j] = vals[e], true
				s++
				e++
			}
		}
	}
}

// b2u is 1 for true, 0 for false, without a branch.
func b2u(b bool) byte {
	if b {
		return 1
	}
	return 0
}

// leftBits writes the routing bits of the split (feature slot, threshold)
// over the block into dst: bit j set when block row j goes left.
func (c *colBlock) leftBits(feature int32, threshold float64, dst []byte) {
	lo, hi := int(feature)*c.n, int(feature+1)*c.n
	if threshold != threshold {
		// No stored value is <= NaN; only missing values go left, and a
		// stored -Inf must not pass for one.
		for j0, has := 0, c.has[lo:hi]; j0 < len(has); j0 += 8 {
			var b byte
			for k, h := range has[j0:min(j0+8, len(has))] {
				b |= b2u(!h) << k
			}
			dst[j0>>3] = b
		}
		return
	}
	vals := c.vals[lo:hi]
	j := 0
	for ; j+8 <= len(vals); j += 8 {
		v := vals[j : j+8 : j+8]
		dst[j>>3] = b2u(v[0] <= threshold) | b2u(v[1] <= threshold)<<1 |
			b2u(v[2] <= threshold)<<2 | b2u(v[3] <= threshold)<<3 |
			b2u(v[4] <= threshold)<<4 | b2u(v[5] <= threshold)<<5 |
			b2u(v[6] <= threshold)<<6 | b2u(v[7] <= threshold)<<7
	}
	if j < len(vals) {
		var b byte
		for k, v := range vals[j:] {
			b |= b2u(v <= threshold) << k
		}
		dst[j>>3] = b
	}
}

// checkRows validates a round's row list against a shard and returns the
// round size (nil rows means every shard row in order).
func checkRows(data *dataset.Dataset, rows []int32) (int, error) {
	if rows == nil {
		return data.Rows(), nil
	}
	for _, r := range rows {
		if r < 0 || int(r) >= data.Rows() {
			return 0, fmt.Errorf("core: score row %d outside shard of %d rows", r, data.Rows())
		}
	}
	return len(rows), nil
}

// skipTrees marks the trees that need a missing party's bits.
func (t *RouteTable) skipTrees(missing map[int]bool) ([]bool, int) {
	if len(missing) == 0 {
		return nil, 0
	}
	skip := make([]bool, len(t.roots))
	skipped := 0
	for ti, owners := range t.owners {
		for _, p := range owners {
			if missing[p] {
				skip[ti] = true
				skipped++
				break
			}
		}
	}
	return skip, skipped
}

// RouteMargins routes every requested row through every tree, reading the
// table party's own features from data and every other split from rb,
// and returns baseScore + learningRate·Σ leaf weights per row (trees in
// ascending order). A tree that needs the bits of a party in missing is
// skipped whole, and the count of skipped trees is returned; a tree that
// is not skipped needs every one of its bitmaps. A nil rows slice scores
// every shard row in order.
func (t *RouteTable) RouteMargins(learningRate, baseScore float64, data *dataset.Dataset, rows []int32, rb *RoundBits, missing map[int]bool) ([]float64, int, error) {
	if !t.routable {
		return nil, 0, fmt.Errorf("core: fragment of party %d was compiled without its tree structure", t.party)
	}
	if rb.table != t {
		return nil, 0, fmt.Errorf("core: routing bits collected for another table")
	}
	n, err := checkRows(data, rows)
	if err != nil {
		return nil, 0, err
	}
	if rb.rows != n {
		return nil, 0, fmt.Errorf("core: routing bits cover %d rows, round has %d", rb.rows, n)
	}
	skip, skipped := t.skipTrees(missing)
	for ti := range t.roots {
		if skip != nil && skip[ti] {
			continue
		}
		for s := t.slotLo[ti]; s < t.slotLo[ti+1]; s++ {
			if rb.slots[s] == nil {
				k := t.slotKeys[s]
				return nil, 0, fmt.Errorf("%w: no routing bits from party %d for tree %d node %d", ErrRoutingBits, k.Party, k.Tree, k.Node)
			}
		}
	}
	out := make([]float64, n)
	for k := range out {
		out[k] = baseScore
	}
	bits := make([]byte, t.bitSlots()*blockBytes)
	var cb colBlock
	for lo := 0; lo < n; lo += routeBlock {
		hi := min(lo+routeBlock, n)
		for s, b := range rb.slots {
			if b != nil {
				copy(bits[s*blockBytes:(s+1)*blockBytes], b[lo/8:])
			}
		}
		cb.gather(t.features, data, rows, lo, hi)
		t.scoreOwn(&cb, bits)
		t.route([][]float64{out}, len(t.roots), learningRate, bits, lo, hi, skip)
	}
	return out, skipped, nil
}

// bitSlots is the number of bitmap slots a block's bit buffer holds:
// the answer slots, then the party's own splits.
func (t *RouteTable) bitSlots() int { return len(t.slotKeys) + len(t.reached) }

// scoreOwn runs the column pass of every own split the trees reach over
// the gathered block, into its slot of the block's bit buffer.
func (t *RouteTable) scoreOwn(cb *colBlock, bits []byte) {
	for i, o := range t.reached {
		at := (len(t.slotKeys) + i) * blockBytes
		cb.leftBits(o.feature, o.threshold, bits[at:at+blockBytes])
	}
}

// route adds learningRate·w of every tree below ntrees that skip does not
// mark to out[tree mod len(out)] for round positions [lo, hi); bit j of
// bitmap slot s in bits (blockBytes bytes from s·blockBytes) is the
// slot's routing bit for position lo+j. Trees go in ascending order, so
// every sum accumulates in the same order as a row-by-row walk.
func (t *RouteTable) route(out [][]float64, ntrees int, learningRate float64, bits []byte, lo, hi int, skip []bool) {
	nodes, weights := t.nodes, t.weights
	for ti := 0; ti < ntrees; ti++ {
		if skip != nil && skip[ti] {
			continue
		}
		dst := out[ti%len(out)][lo:hi]
		for j := range dst {
			i := t.roots[ti]
			for nodes[i].at >= 0 {
				i = nodes[i].kids[bits[int(nodes[i].at)+j>>3]>>(j&7)&1]
			}
			dst[j] += learningRate * weights[i]
		}
	}
}
