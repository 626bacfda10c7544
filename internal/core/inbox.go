package core

import (
	"fmt"
	"sync"
)

// frameKind is the kind of frame a passive party sends Party B.
type frameKind uint8

const (
	kindHist frameKind = iota
	kindPlacement
	kindReady
	kindResume
)

// inboxKey names a frame Party B waits for. Node IDs restart every tree,
// so histograms and placements are keyed by (tree, node); MsgReady and
// MsgResume arrive once per session and take the zero tree and node.
type inboxKey struct {
	kind frameKind
	tree int
	node int32
}

func histKey(tree int, node int32) inboxKey {
	return inboxKey{kind: kindHist, tree: tree, node: node}
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
// what the peer sent and B has not taken, at most one histogram and one
// placement per node of the round.
type inbox struct {
	mu   sync.Mutex
	wake *sync.Cond // broadcast on every filing and on failure
	// frames holds each filed frame by key. A histogram B has taken stays
	// as a nil entry until the round boundary: a second frame for its node
	// is a duplicate.
	frames map[inboxKey]any
	// err is the first failure of the link: a receive error, the peer's
	// MsgAbort, a frame B never expects or a duplicate histogram.
	err error
}

func newInbox() *inbox {
	in := &inbox{frames: make(map[inboxKey]any)}
	in.wake = sync.NewCond(&in.mu)
	return in
}

// startInbox starts reading l into a new inbox. The reader ends at the
// link's first failure, which closing the transport causes.
func startInbox(l *link) *inbox {
	in := newInbox()
	go func() {
		for in.file(l.recv()) {
		}
	}()
	return in
}

// file files one received frame. A failed receive, or a frame B refuses,
// latches the link's failure instead. It reports whether the link is still
// worth reading.
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
		}
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
// link has failed, a wait for a frame not yet filed returns the failure.
func (in *inbox) await(k inboxKey) (any, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if f := in.frames[k]; f != nil {
			if k.kind == kindHist {
				in.frames[k] = nil
			} else {
				delete(in.frames, k)
			}
			return f, nil
		}
		if in.err != nil {
			return nil, in.err
		}
		in.wake.Wait()
	}
}

// reset drops every frame of the round, taken or not.
func (in *inbox) reset() {
	in.mu.Lock()
	defer in.mu.Unlock()
	clear(in.frames)
}
