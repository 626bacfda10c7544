package core

import (
	"fmt"
	"math/bits"
	"sync"
)

// frameKind is the kind of frame a passive party sends Party B.
type frameKind uint8

const (
	kindHist frameKind = iota
	kindHistCt
	kindPlacement
	kindReady
	kindResume
)

// inboxKey names a frame Party B waits for. Node IDs restart every tree,
// so histogram headers and placements are keyed by (tree, node) and a
// histogram's ciphertexts by (tree, node, index); MsgReady and MsgResume
// arrive once per session and take the zero tree and node.
type inboxKey struct {
	kind  frameKind
	tree  int
	node  int32
	index int
}

func histKey(tree int, node int32) inboxKey {
	return inboxKey{kind: kindHist, tree: tree, node: node}
}

func ctKey(tree int, node int32, index int) inboxKey {
	return inboxKey{kind: kindHistCt, tree: tree, node: node, index: index}
}

func placementKey(tree int, node int32) inboxKey {
	return inboxKey{kind: kindPlacement, tree: tree, node: node}
}

// inbox is Party B's receive side of one passive link: a goroutine reads
// the link and files every frame under its key, and B waits for keys. The
// reader never blocks on a frame kind, so no kind can starve another: a
// histogram B waits for is read however many placements queue before it.
//
// A frame waits until B takes it or the round boundary clears it, so a
// multi-output round's per-class root histograms, tagged with later trees
// of the round, are held until their tree builds, and a placement for a
// tree B no longer waits on is never read. The store has no cap: it holds
// what the peer sent and B has not taken, at most one histogram header,
// its ciphertexts and one placement per node of the round.
//
// A node's header comes before its ciphertexts on the link, so the inbox
// checks each ciphertext frame against its header as it files it: one
// before its header, an index at or beyond the header's chunk count, or a
// second frame for an index is refused there (ErrPackedLayout).
type inbox struct {
	mu   sync.Mutex
	wake *sync.Cond // broadcast on every filing and on failure
	// plan is the session's chunk rule: a header's slots size its node's
	// ciphertext frames.
	plan packPlan
	// frames holds each filed frame by key. A histogram header or
	// ciphertext B has taken stays as a nil entry until the round
	// boundary: a second frame for it is a duplicate.
	frames map[inboxKey]any
	// chunks is the chunk count of every header filed this round, by its
	// histKey.
	chunks map[inboxKey]int
	// err is the first failure of the link: a receive error, the peer's
	// MsgAbort, a frame B refuses as it files it, or B's refusal of a
	// ciphertext it decrypted (file(nil, err)).
	err error
}

func newInbox(plan packPlan) *inbox {
	in := &inbox{plan: plan, frames: make(map[inboxKey]any), chunks: make(map[inboxKey]int)}
	in.wake = sync.NewCond(&in.mu)
	return in
}

// startInbox starts reading l into a new inbox. The reader ends at the
// link's first failure, which closing the transport causes.
func startInbox(l *link, plan packPlan) *inbox {
	in := newInbox(plan)
	go func() {
		for in.file(l.recv()) {
		}
	}()
	return in
}

// file files one received frame. A failed receive, or a frame B refuses,
// latches the link's failure instead. It reports whether the link is still
// worth reading. file(nil, err) latches err, which is how B fails the
// waits of a node whose ciphertext it refused.
func (in *inbox) file(msg any, err error) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	defer in.wake.Broadcast()
	if err == nil {
		err = in.fileLocked(msg)
	}
	if err != nil && in.err == nil {
		in.err = err
	}
	return err == nil
}

func (in *inbox) fileLocked(msg any) error {
	switch m := msg.(type) {
	case MsgHistograms:
		for _, nh := range m.Nodes {
			k := histKey(m.Tree, nh.Node)
			if _, dup := in.frames[k]; dup {
				return fmt.Errorf("%w: node %d of tree %d announced twice", ErrSiblingDerivation, nh.Node, m.Tree)
			}
			in.frames[k] = nh
			in.chunks[k] = in.plan.chunks(nodeSlots(nh.Feats))
		}
	case MsgHistCt:
		chunks, ok := in.chunks[histKey(m.Tree, m.Node)]
		k := ctKey(m.Tree, m.Node, m.Index)
		_, dup := in.frames[k]
		switch {
		case !ok:
			return fmt.Errorf("%w: ciphertext %d of node %d of tree %d before its header", ErrPackedLayout, m.Index, m.Node, m.Tree)
		case m.Index < 0 || m.Index >= chunks:
			return fmt.Errorf("%w: ciphertext %d of node %d of tree %d, whose header makes %d", ErrPackedLayout, m.Index, m.Node, m.Tree, chunks)
		case dup:
			return fmt.Errorf("%w: ciphertext %d of node %d of tree %d shipped twice", ErrPackedLayout, m.Index, m.Node, m.Tree)
		}
		in.frames[k] = m
	case MsgPlacement:
		in.frames[placementKey(m.Tree, m.Node)] = m
	case MsgReady:
		in.frames[inboxKey{kind: kindReady}] = m
	case MsgResume:
		in.frames[inboxKey{kind: kindResume}] = m
	case MsgAbort:
		// The passive party hit an unrecoverable input error (see
		// passiveParty.fail); surface it as the session failure.
		return fmt.Errorf("core: party %d aborted session: %s", m.Party, m.Reason)
	default:
		return fmt.Errorf("core: party B: unexpected message %T", msg)
	}
	return nil
}

// await takes the frame filed under k, waiting until it arrives. Once the
// link has failed every wait returns the failure, also for a frame filed
// before it: nothing a refused peer sent is used.
func (in *inbox) await(k inboxKey) (any, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.err != nil {
			return nil, in.err
		}
		if f := in.frames[k]; f != nil {
			if k.kind == kindHist || k.kind == kindHistCt {
				in.frames[k] = nil
			} else {
				delete(in.frames, k)
			}
			return f, nil
		}
		in.wake.Wait()
	}
}

// reset drops every frame of the round, taken or not.
func (in *inbox) reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	clear(in.frames)
	clear(in.chunks)
}

// nodeSlots is the slot count a header's bitmaps name: the popcount of
// every feature's Occupied bitmap.
func nodeSlots(feats []FeatHist) int {
	slots := 0
	for _, fh := range feats {
		for _, octet := range fh.Occupied {
			slots += bits.OnesCount8(octet)
		}
	}
	return slots
}
