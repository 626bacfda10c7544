package core

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"vf2boost/internal/dataset"
)

// Pruned scoring answers. Party B's router reads a passive party's bit at
// split s only for rows that reach s, and the party can tell part of that
// itself: a row that its own split a (the nearest split above s the party
// owns) sends away from s never reaches s, whatever the splits of other
// parties in between do. So the party answers, per tree, only for the rows
// in each split's reach:
//
//	reach(s) = every row                          when s has no such a
//	reach(s) = reach(a) ∩ {rows a sends to s's side}  otherwise
//
// The splits of one tree are packed split-major into one bit string, each
// contributing one bit per row of its reach in ascending row order, in a
// parents-first order both sides agree on: the order of Party B's
// RouteTable.Reach, which the party receives once per model version
// (MsgScoreReach) and binds to its fragment (Bind). B expands each tree's
// string back into one full bitmap per split, parents first, leaving the
// rows outside a split's reach 0; the router never reads those, so every
// margin is what the full bitmaps give. Masks and bitmaps are handled a
// 64-row word at a time, bit i of word w being row 64w+i.

// ReachTree lists one party's splits in one tree, parents first, each
// with its link to the nearest split above it the party also owns. Root is
// the tree's root, which addresses the tree's answer.
type ReachTree struct {
	Tree   int
	Root   int32
	Splits []ReachSplit
}

// ReachSplit is one split of a ReachTree. Above indexes the nearest split
// above it that the party owns among the splits listed before it (-1:
// none), and Left says which side of that split it lies on.
type ReachSplit struct {
	Node  int32
	Above int32
	Left  bool
}

// answerTree is one tree of a bound table's answer: owned[lo:hi] pack into
// one PredictNodeBits addressed by the tree's root.
type answerTree struct {
	tree   int
	root   int32
	lo, hi int32
}

// Reach lists, per tree in ascending order, the splits party owns that the
// table routes through, parents first, each linked to the nearest of them
// above it: what the party binds (Bind) to answer rounds with only the
// bits this table reads. Trees without such a split are left out.
func (t *RouteTable) Reach(party int) []ReachTree {
	var out []ReachTree
	for ti := range t.roots {
		lo, hi := t.slotLo[ti], t.slotLo[ti+1]
		pos := make([]int32, hi-lo) // slot → index in rt.Splits
		var rt ReachTree
		for s := lo; s < hi; s++ {
			if t.slotKeys[s].Party != party {
				continue
			}
			l := t.links[s]
			sp := ReachSplit{Node: t.slotKeys[s].Node, Above: -1, Left: l.left}
			if l.above >= 0 {
				sp.Above = pos[l.above-lo]
			}
			pos[s-lo] = int32(len(rt.Splits))
			rt.Splits = append(rt.Splits, sp)
		}
		if len(rt.Splits) > 0 {
			rt.Tree, rt.Root = ti, t.rootIDs[ti]
			out = append(out, rt)
		}
	}
	return out
}

// Bind returns the table that answers rounds of one model version: the
// splits reach lists (Party B's Reach for this party), in that order, each
// answering for its reach only. reach must agree with the fragment: trees
// ascending, each with the fragment's root and at least one split, every
// split the party's own and listed once, each Above naming a split listed
// before it, and a split the fragment makes a child of another of the
// party's splits naming that one, on that side. A disagreement is an
// ErrModelStructure. Splits the list leaves out are never scored.
func (t *RouteTable) Bind(reach []ReachTree) (*RouteTable, error) {
	if t.up == nil && len(t.owned) > 0 {
		return nil, fmt.Errorf("core: party %d's table was not compiled from a passive fragment (CompileOwnedSplits)", t.party)
	}
	index := make(map[uint64]int32, len(t.owned))
	for i, o := range t.owned {
		key, _ := treeNode(int(o.tree), o.node)
		index[key] = int32(i)
	}
	b := &RouteTable{party: t.party, features: t.features, rootIDs: t.rootIDs, bound: true}
	listed := make([]bool, len(t.owned))
	prev := -1
	for _, rt := range reach {
		if rt.Tree <= prev || rt.Tree >= len(t.rootIDs) || len(rt.Splits) == 0 || rt.Root != t.rootIDs[rt.Tree] {
			return nil, fmt.Errorf("%w: party %d: reach lists tree %d (root %d, %d splits) after tree %d, of %d", ErrModelStructure, t.party, rt.Tree, rt.Root, len(rt.Splits), prev, len(t.rootIDs))
		}
		prev = rt.Tree
		lo := int32(len(b.owned))
		for k, sp := range rt.Splits {
			key, _ := treeNode(rt.Tree, sp.Node)
			i, ok := index[key]
			if !ok || listed[i] {
				return nil, fmt.Errorf("%w: party %d: reach lists tree %d node %d, which is not its split or is listed twice", ErrModelStructure, t.party, rt.Tree, sp.Node)
			}
			listed[i] = true
			link := reachLink{above: -1, left: sp.Left}
			if sp.Above >= int32(k) || sp.Above < -1 {
				return nil, fmt.Errorf("%w: party %d: reach of tree %d node %d points at split %d of the %d before it", ErrModelStructure, t.party, rt.Tree, sp.Node, sp.Above, k)
			}
			if sp.Above >= 0 {
				link.above = lo + sp.Above
			}
			if up := t.up[i]; up.above >= 0 && (link.above < 0 || b.owned[link.above].node != t.owned[up.above].node || link.left != up.left) {
				return nil, fmt.Errorf("%w: party %d: reach of tree %d node %d disagrees with the fragment, where it is a child of node %d", ErrModelStructure, t.party, rt.Tree, sp.Node, t.owned[up.above].node)
			}
			b.owned = append(b.owned, t.owned[i])
			b.reach = append(b.reach, link)
		}
		b.answer = append(b.answer, answerTree{tree: rt.Tree, root: t.rootIDs[rt.Tree], lo: lo, hi: int32(len(b.owned))})
	}
	return b, nil
}

// Score answers one round for the given shard rows: one PredictNodeBits per
// tree of the bound answer, addressed by the tree's root, whose Bits pack
// the tree's splits in their reach order, row k of the round being the
// k-th requested row. A nil rows slice scores every shard row in order.
func (t *RouteTable) Score(data *dataset.Dataset, rows []int32) ([]PredictNodeBits, error) {
	if !t.bound {
		return nil, fmt.Errorf("core: party %d's table has no reach links; bind Party B's first", t.party)
	}
	n, err := checkRows(data, rows)
	if err != nil {
		return nil, err
	}
	if len(t.answer) == 0 {
		return nil, nil
	}
	words := (n + 63) / 64
	left := t.leftWords(data, rows, n)
	reach := make([]uint64, len(left))
	ends := make([]int, len(t.answer))
	w := bitWriter{b: make([]byte, 0, len(left)*8+len(t.answer))}
	for a, at := range t.answer {
		for i := int(at.lo); i < int(at.hi); i++ {
			lw, rw := left[i*words:(i+1)*words], reach[i*words:(i+1)*words]
			t.reach[i].mask(rw, left, reach, words, n)
			for k, m := range rw {
				if m != 0 {
					w.write(extract(lw[k], m), bits.OnesCount64(m))
				}
			}
		}
		w.flush()
		ends[a] = len(w.b)
	}
	out := make([]PredictNodeBits, len(t.answer))
	start := 0
	for a, at := range t.answer {
		out[a] = PredictNodeBits{Tree: at.tree, Node: at.root, Bits: w.b[start:ends[a]:ends[a]]}
		start = ends[a]
	}
	return out, nil
}

// mask writes into rw the reach of the split l belongs to: every one of
// the round's n rows when it links to no split above it, else the rows of
// that split's reach that its left bits send to the split's side. left and
// reach hold words 64-row words per split of the same list.
func (l reachLink) mask(rw, left, reach []uint64, words, n int) {
	if l.above < 0 {
		for k := range rw {
			rw[k] = ^uint64(0)
		}
		if n%64 != 0 {
			rw[len(rw)-1] = 1<<(n%64) - 1
		}
		return
	}
	a := int(l.above) * words
	al, ar := left[a:a+words], reach[a:a+words]
	for k := range rw {
		side := al[k]
		if !l.left {
			side = ^side
		}
		rw[k] = ar[k] & side
	}
}

// leftWords runs the column pass of every owned split over the round's n
// rows and returns the left bits, (n+63)/64 words per split.
func (t *RouteTable) leftWords(data *dataset.Dataset, rows []int32, n int) []uint64 {
	buf := t.leftBytes(data, rows, n, (n+63)/64*8)
	out := make([]uint64, len(buf)/8)
	for k := range out {
		out[k] = binary.LittleEndian.Uint64(buf[8*k:])
	}
	return out
}

// leftBytes runs the column pass of every owned split over the round's n
// rows into one buffer, stride ≥ ⌈n/8⌉ bytes per split.
func (t *RouteTable) leftBytes(data *dataset.Dataset, rows []int32, n, stride int) []byte {
	buf := make([]byte, len(t.owned)*stride)
	var cb colBlock
	for lo := 0; lo < n; lo += routeBlock {
		hi := min(lo+routeBlock, n)
		cb.gather(t.features, data, rows, lo, hi)
		for i, o := range t.owned {
			cb.leftBits(o.feature, o.threshold, buf[i*stride+lo/8:])
		}
	}
	return buf
}

// placements computes the full routing bitmap of every owned split, in
// (tree, ascending node id) order: the in-process form of an answer.
func (t *RouteTable) placements(data *dataset.Dataset, rows []int32) ([]PredictNodeBits, error) {
	n, err := checkRows(data, rows)
	if err != nil {
		return nil, err
	}
	if len(t.owned) == 0 {
		return nil, nil
	}
	w := (n + 7) / 8
	buf := t.leftBytes(data, rows, n, w)
	out := make([]PredictNodeBits, len(t.owned))
	for i, o := range t.owned {
		out[i] = PredictNodeBits{Tree: int(o.tree), Node: o.node, Bits: buf[i*w : (i+1)*w : (i+1)*w]}
	}
	return out, nil
}

// RoundBits collects one round's routing bitmaps from the other parties,
// one per answer slot of the table that made it.
type RoundBits struct {
	table *RouteTable
	rows  int
	slots [][]byte
}

// NewRoundBits starts collecting bitmaps for a round of the given size.
func (t *RouteTable) NewRoundBits(rows int) *RoundBits {
	return &RoundBits{table: t, rows: rows, slots: make([][]byte, len(t.slotKeys))}
}

// Place files a party's answer: one entry per tree in which the table
// reads any of the party's splits, addressed by the tree's root, its bits
// packed in the table's Reach order. Each entry is expanded back into one
// ⌈rows/8⌉-byte bitmap per split. An entry for a tree out of range, under
// another node than the root, given twice, for a tree without the party's
// splits, or whose bits run out before the last split's reach or go on past
// it, is an ErrRoutingBits naming the party and tree; nothing of the answer
// is filed then, and the caller must treat it as a protocol violation.
func (rb *RoundBits) Place(party int, nodes []PredictNodeBits) error {
	t := rb.table
	seen := make([]bool, len(t.roots))
	span, filled := 0, 0 // the widest tree's answer slots; the party's slots in all
	for _, nb := range nodes {
		ti := nb.Tree
		if ti < 0 || ti >= len(t.roots) {
			return fmt.Errorf("%w: party %d sent bits for tree %d of a %d-tree model", ErrRoutingBits, party, ti, len(t.roots))
		}
		if nb.Node != t.rootIDs[ti] || seen[ti] {
			return fmt.Errorf("%w: party %d sent bits for tree %d under node %d, want one entry under its root %d", ErrRoutingBits, party, ti, nb.Node, t.rootIDs[ti])
		}
		seen[ti] = true
		lo, hi := t.slotLo[ti], t.slotLo[ti+1]
		span = max(span, int(hi-lo))
		for s := lo; s < hi; s++ {
			if t.slotKeys[s].Party == party {
				filled++
			}
		}
	}
	words := (rb.rows + 63) / 64
	x := expansion{
		left:  make([]uint64, span*words),
		reach: make([]uint64, span*words),
		buf:   make([]byte, filled*words*8),
		slots: make([]int32, 0, filled),
	}
	for _, nb := range nodes {
		if err := t.expand(party, nb.Tree, nb.Bits, rb.rows, &x); err != nil {
			return err
		}
	}
	size := (rb.rows + 7) / 8
	for k, s := range x.slots {
		at := k * words * 8
		rb.slots[s] = x.buf[at : at+size : at+size]
	}
	return nil
}

// expansion is Place's scratch: the left bits and reach masks of one
// tree's answer slots, and the slots expanded so far, the k-th one's
// bitmap at word k·words of buf.
type expansion struct {
	left, reach []uint64
	buf         []byte
	slots       []int32
}

// expand unpacks party's bits for tree ti into one bitmap per answer slot
// the party fills in it, parents first.
func (t *RouteTable) expand(party, ti int, packed []byte, rows int, x *expansion) error {
	lo, hi := t.slotLo[ti], t.slotLo[ti+1]
	words := (rows + 63) / 64
	r := bitReader{b: packed}
	first := len(x.slots)
	for s := lo; s < hi; s++ {
		if t.slotKeys[s].Party != party {
			continue
		}
		k := int(s - lo)
		lw, rw := x.left[k*words:(k+1)*words], x.reach[k*words:(k+1)*words]
		l := t.links[s]
		if l.above >= 0 {
			l.above -= lo
		}
		l.mask(rw, x.left, x.reach, words, rows)
		for w, m := range rw {
			lw[w] = 0
			if m != 0 {
				lw[w] = deposit(r.read(bits.OnesCount64(m)), m)
			}
		}
		if r.short {
			return fmt.Errorf("%w: party %d sent %d bytes for tree %d, too few for the reach of node %d", ErrRoutingBits, party, len(packed), ti, t.slotKeys[s].Node)
		}
		b := x.buf[len(x.slots)*words*8:]
		for w, v := range lw {
			binary.LittleEndian.PutUint64(b[8*w:], v)
		}
		x.slots = append(x.slots, s)
	}
	if len(x.slots) == first {
		return fmt.Errorf("%w: party %d sent bits for tree %d, where the model reads none of its splits", ErrRoutingBits, party, ti)
	}
	if want := (r.pos + 7) / 8; want != len(packed) {
		return fmt.Errorf("%w: party %d sent %d bytes for tree %d, want %d", ErrRoutingBits, party, len(packed), ti, want)
	}
	return nil
}

// placeFull files full per-split bitmaps, the in-process form of an
// answer. Every bitmap must be exactly ⌈rows/8⌉ bytes; a wrong length is an
// ErrRoutingBits naming the party, tree and node, and nothing is filed.
// Bitmaps for splits the table does not route through are ignored.
func (rb *RoundBits) placeFull(party int, nodes []PredictNodeBits) error {
	want := (rb.rows + 7) / 8
	for _, nb := range nodes {
		if len(nb.Bits) != want {
			return fmt.Errorf("%w: party %d sent %d bytes for tree %d node %d, want %d for %d rows",
				ErrRoutingBits, party, len(nb.Bits), nb.Tree, nb.Node, want, rb.rows)
		}
	}
	for _, nb := range nodes {
		if s, ok := rb.table.answerSlot(party, nb.Tree, nb.Node); ok {
			rb.slots[s] = nb.Bits
		}
	}
	return nil
}

// extract gathers the bits of v at the set positions of m into the low
// bits of the result, in ascending position order.
func extract(v, m uint64) uint64 {
	if m&(m+1) == 0 { // m is a run of low bits: every row of a word, or of a short round
		return v & m
	}
	var out uint64
	for k := 0; m != 0; k++ {
		out |= (v >> bits.TrailingZeros64(m) & 1) << k
		m &= m - 1
	}
	return out
}

// deposit is extract's inverse: the low bits of v go to the set positions
// of m, in ascending order.
func deposit(v, m uint64) uint64 {
	if m&(m+1) == 0 {
		return v & m
	}
	var out uint64
	for ; m != 0; m &= m - 1 {
		out |= (v & 1) << bits.TrailingZeros64(m)
		v >>= 1
	}
	return out
}

// bitWriter appends bit strings to b, least significant bit first.
type bitWriter struct {
	b   []byte
	acc uint64
	n   int // bits pending in acc
}

// write appends the low n bits of v (1 ≤ n ≤ 64; the rest must be 0).
func (w *bitWriter) write(v uint64, n int) {
	w.acc |= v << w.n
	if w.n+n < 64 {
		w.n += n
		return
	}
	w.b = binary.LittleEndian.AppendUint64(w.b, w.acc)
	w.acc = v >> (64 - w.n) // a shift by 64 is 0
	w.n += n - 64
}

// flush pads the pending bits to a whole byte and appends them.
func (w *bitWriter) flush() {
	for ; w.n > 0; w.n -= 8 {
		w.b = append(w.b, byte(w.acc))
		w.acc >>= 8
	}
	w.acc, w.n = 0, 0
}

// bitReader reads bit strings bitWriter wrote. A read past the end
// returns zeros and sets short.
type bitReader struct {
	b     []byte
	pos   int
	short bool
}

// read returns the next n bits (1 ≤ n ≤ 64).
func (r *bitReader) read(n int) uint64 {
	if r.pos+n > 8*len(r.b) {
		r.short = true
		return 0
	}
	i, off := r.pos>>3, r.pos&7
	b := r.b[i:]
	if len(b) < 9 {
		var pad [9]byte
		copy(pad[:], b)
		b = pad[:]
	}
	v := binary.LittleEndian.Uint64(b)>>off | uint64(b[8])<<(64-off) // a shift by 64 is 0
	r.pos += n
	if n < 64 {
		v &= 1<<n - 1
	}
	return v
}
