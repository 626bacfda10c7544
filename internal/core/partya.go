package core

import (
	"errors"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/checkpoint"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/objective"
	"vf2boost/internal/paillier"
	"vf2boost/internal/trace"
)

// passiveParty is a Party A engine: it owns feature columns but no labels,
// receives encrypted gradient statistics, builds encrypted histograms, and
// answers placement queries for the splits it wins. It is driven entirely
// by the messages on its link, so the same engine runs in-process or
// across the TCP gateway.
type passiveParty struct {
	index int
	cfg   Config

	// view is the binned feature matrix the engine sweeps: the in-memory
	// BinnedMatrix in the default path, or the disk-backed shard store of
	// internal/ooc when training out of core. cols caches the feature
	// count (len(mapper.Cuts)).
	view   gbdt.BinView
	cols   int
	mapper *gbdt.BinMapper

	scheme  he.Scheme
	codec   *fixedpoint.Codec
	plan    packPlan
	shiftCt he.Ciphertext

	link   *link
	sendMu sync.Mutex // serializes link sends from tasks and the main loop
	stats  *Stats

	// frames is what the receive pump has read and run has not taken yet,
	// in arrival order; held is a frame run took while gathering a layer's
	// corrections that was not one of them (see queuedDirty).
	frames chan inbound
	held   *inbound

	// failMu guards failErr, the first unrecoverable failure hit by a
	// background histogram task; see fail.
	failMu  sync.Mutex
	failErr error

	// offsets are the per-feature bin offsets of this party's mapper.
	offsets []int

	// Per-tree state: gh holds one folded ⟨g,h⟩ ciphertext per instance.
	tree int
	gh   []fixedpoint.EncNum
	// Multi-output state: outputs is the negotiated objective output
	// count k (1 = binary default) and roundTree the first class tree of
	// the current round — every gradient shipment of the round is tagged
	// with it. ghAll holds the k per-class scalar gradient streams (gh
	// aliases the stream of the tree currently building);
	// rootPartsAll/rootCountAll are their per-class sharded root builds.
	outputs      int
	roundTree    int
	ghAll        [][]fixedpoint.EncNum
	rootPartsAll [][]*fixedpoint.Sums
	rootCountAll []int
	nodeInsts    map[int32][]int32

	// Abortable histogram sub-tasks, keyed by node ID. units is the party's
	// worker budget: every sweep, finalize and packing unit of every task
	// and of the root runs on it. pending are the tasks no accumulation
	// pass has taken yet; walking is set while a pass walks a sharded view,
	// which is when later tasks wait for the next pass (see startPasses).
	tasks   map[int32]*histTask
	pending []*histTask
	walking bool
	tasksMu sync.Mutex
	taskWG  sync.WaitGroup
	units   unitQueue

	model *PartyModel

	// ckpt, when set, snapshots the fragment after every completed tree.
	// A restored fragment (resume) is installed before run starts; its
	// length is announced to B via MsgResume at setup.
	ckpt *checkpoint.Store

	// rec, when set, records this party's Gantt lane.
	rec *trace.Recorder
}

// histTask is one abortable per-node histogram build (the "small
// sub-tasks which can be processed in parallel" of Figure 6): the node's
// frame header and instance list, the tree and gradient stream it was
// scheduled under, and — once a pass has taken it — its accumulator.
type histTask struct {
	node    int32
	layer   int
	aborted atomic.Bool

	head  NodeHist
	insts []int32
	tree  int
	gh    []fixedpoint.EncNum
	hist  *fixedpoint.Sums
}

// newPassivePartyView builds a passive engine over a binned view: the
// in-memory BinnedMatrix of a dataset, or an out-of-core shard store.
func newPassivePartyView(index int, view gbdt.BinView, cfg Config, lk *link, stats *Stats) *passiveParty {
	mapper := view.Mapper()
	p := &passiveParty{
		index:  index,
		cfg:    cfg,
		view:   view,
		cols:   len(mapper.Cuts),
		mapper: mapper,
		link:   lk,
		stats:  stats,
		frames: make(chan inbound, pumpDepth),
		units:  make(unitQueue, max(cfg.Workers, 1)),
		model:  &PartyModel{Party: index},
	}
	p.offsets = make([]int, p.cols+1)
	for j := 0; j < p.cols; j++ {
		p.offsets[j+1] = p.offsets[j] + mapper.NumBins(j)
	}
	return p
}

// inbound is one frame the receive pump read, or the receive error that
// ended it.
type inbound struct {
	msg any
	err error
}

// pumpDepth bounds the frames the receive pump decodes ahead of run. A
// layer's corrections arrive one frame per dirty node, so this holds every
// correction of a 64-node layer; the rest of a wider layer waits for the
// next placement pass, which is only slower.
const pumpDepth = 64

// run drives the passive engine until shutdown. It returns the party's
// model fragment. Every failure after the link is up reaches B as
// MsgAbort before run returns, except B's own abort and a link that
// failed: B is then gone or already told.
func (p *passiveParty) run() (*PartyModel, error) {
	stop := make(chan struct{})
	defer close(stop)
	go p.pump(stop)
	for {
		f := p.next()
		if f.err != nil {
			// A task failure usually surfaces here: B aborts the session on
			// MsgAbort and the link dies. Report the root cause, not the
			// secondary transport error.
			if ferr := p.failed(); ferr != nil {
				return nil, ferr
			}
			err := fmt.Errorf("core: party %d receive: %w", p.index, f.err)
			if errors.Is(err, ErrUndecodable) {
				// A frame that arrived but cannot be read — an unknown or
				// retired ID, a malformed body — is B's to hear about: it may
				// be waiting in setup for an answer that will not come.
				return nil, p.reject(err)
			}
			return nil, err
		}
		if ferr := p.failed(); ferr != nil {
			return nil, ferr
		}
		switch m := f.msg.(type) {
		case MsgShutdown:
			p.taskWG.Wait()
			return p.model, nil
		case MsgAbort:
			return nil, fmt.Errorf("core: party %d: party B aborted the session: %s", p.index, m.Reason)
		}
		if err := p.handle(f.msg); err != nil {
			return nil, p.reject(err)
		}
	}
}

// handle applies one frame from B.
func (p *passiveParty) handle(msg any) error {
	switch m := msg.(type) {
	case MsgSetup:
		return p.handleSetup(m)
	case MsgPairBatch:
		return p.handlePairBatch(m)
	case MsgGradBatch:
		return fmt.Errorf("%w: two-ciphertext gradient batch", ErrLegacyLayout)
	case MsgDecisions:
		return p.handleDecisions(m)
	case MsgDirty:
		return p.handleDirty(append([]MsgDirty{m}, p.queuedDirty(m.Tree, m.Layer)...))
	case MsgTreeDone:
		p.taskWG.Wait()
		if p.outputs > 1 && (m.Tree+1)%p.outputs != 0 {
			// Mid-round advance: the next class tree consumes the same
			// gradient shipment, so only per-tree bookkeeping resets.
			// Checkpoints wait for the round boundary — a fragment is
			// resumable only at a completed round.
			return p.advanceClassTree(m.Tree + 1)
		}
		if p.ckpt != nil {
			if err := p.saveCheckpoint(m.Tree + 1); err != nil {
				return fmt.Errorf("core: party %d checkpoint: %w", p.index, err)
			}
		}
		return nil
	default:
		return fmt.Errorf("core: party %d: unexpected message %T", p.index, msg)
	}
}

// pump reads the link and forwards every frame to run in arrival order,
// so frames queue while run is busy with an earlier one. It ends after
// forwarding MsgShutdown, MsgAbort or a receive error, or once run has
// returned (stop) — in which case a receive still blocked ends it when
// the transport closes.
func (p *passiveParty) pump(stop <-chan struct{}) {
	for {
		msg, err := p.link.recv()
		select {
		case p.frames <- inbound{msg, err}:
		case <-stop:
			return
		}
		switch msg.(type) {
		case MsgShutdown, MsgAbort:
			return
		}
		if err != nil {
			return
		}
	}
}

// next takes the next frame: one held back by queuedDirty, or the pump's
// next, waiting for it if none has arrived.
func (p *passiveParty) next() inbound {
	if f := p.held; f != nil {
		p.held = nil
		return *f
	}
	idleStart := time.Now()
	f := <-p.frames
	addDur(&p.stats.aIdleTime, time.Since(idleStart))
	return f
}

// queuedDirty takes the corrections of (tree, layer) already queued behind
// the one run just took, so they share its placement pass. It stops at the
// first other frame, which it holds for next, and never waits for a frame
// that has not arrived: nothing is reordered or delayed.
func (p *passiveParty) queuedDirty(tree, layer int) []MsgDirty {
	var more []MsgDirty
	for p.held == nil {
		select {
		case f := <-p.frames:
			if d, ok := f.msg.(MsgDirty); ok && d.Tree == tree && d.Layer == layer {
				more = append(more, d)
			} else {
				p.held = &f
			}
		default:
			return more
		}
	}
	return more
}

func (p *passiveParty) send(m any) error {
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.link.send(m)
}

// fail records the first unrecoverable failure hit by a background
// histogram task and notifies B so the whole session aborts. A storage
// fault under the binned view, hostile or corrupt wire input that only
// fails mid-computation, or a histogram the link refused must surface as
// a session error on both sides, never as a panic of the passive process
// or a B left waiting. The recorded error is what run returns once its
// receive loop unblocks (B tears the link down on MsgAbort).
func (p *passiveParty) fail(err error) {
	p.failMu.Lock()
	first := p.failErr == nil
	if first {
		p.failErr = err
	}
	p.failMu.Unlock()
	if first {
		p.send(MsgAbort{Party: p.index, Reason: err.Error()})
	}
}

// reject fails the session on an error run hit handling a frame —
// malformed or hostile peer input, or a failure of this party's own such
// as a checkpoint it cannot save: B is told (MsgAbort) before this party
// unwinds, so it never waits on an answer that will not come.
func (p *passiveParty) reject(err error) error {
	p.fail(err)
	return err
}

// failed returns the first recorded task failure, or nil.
func (p *passiveParty) failed() error {
	p.failMu.Lock()
	defer p.failMu.Unlock()
	return p.failErr
}

// handleSetup installs the shared cryptographic context. Every setup must
// announce the folded pair width; one that does not comes from a peer
// still on the two-ciphertext layout.
func (p *passiveParty) handleSetup(m MsgSetup) error {
	if m.PairBits == 0 {
		return fmt.Errorf("%w: setup announces no pair width", ErrLegacyLayout)
	}
	switch m.Scheme {
	case SchemePaillier:
		n := new(big.Int).SetBytes(m.N)
		pk := paillier.NewPublicKey(n)
		if len(m.ObfBase) > 0 {
			// B derived a DJN fast-obfuscation base at key setup; install
			// it so this party's encryptions use short-exponent h^x
			// obfuscators too. The base is validated — a malformed one
			// fails the session here rather than corrupting obfuscation.
			if err := pk.SetObfuscationBase(new(big.Int).SetBytes(m.ObfBase), m.ObfBits); err != nil {
				return fmt.Errorf("core: party %d installing obfuscation base: %w", p.index, err)
			}
		}
		p.scheme = he.NewPaillierPublic(pk)
	case SchemeMock:
		if m.Bits > maxWireKeyBits {
			return fmt.Errorf("core: party %d: setup asks for a %d-bit mock modulus", p.index, m.Bits)
		}
		p.scheme = he.NewMock(m.Bits)
	default:
		return fmt.Errorf("core: setup with unknown scheme %q", m.Scheme)
	}
	// Objective negotiation: a non-binary session names its objective in
	// the setup so this party can fail fast when its local registry
	// cannot mirror the training schedule (the fields ride MsgSetup only
	// when the objective is not the binary default, keeping single-output
	// setups wire-identical). Only the name and the output count are
	// shared — gradients stay encrypted and labels never leave B.
	p.outputs = max(m.Outputs, 1)
	if p.outputs > maxWireOutputs {
		return fmt.Errorf("core: party %d: setup announces %d outputs", p.index, p.outputs)
	}
	if m.Objective != "" && !objective.Registered(baseName(m.Objective)) {
		return fmt.Errorf("core: party %d: peer negotiated unregistered objective %q (registered: %s)",
			p.index, m.Objective, strings.Join(objective.Names(), ", "))
	}
	if m.BaseExp < 1 || m.ExpSpread < 1 || m.BaseExp+m.ExpSpread > maxWireExp {
		return fmt.Errorf("core: party %d: setup exponents [%d,%d+%d) invalid", p.index, m.BaseExp, m.BaseExp, m.ExpSpread)
	}
	// This party encrypts nothing but public constants and draws no
	// exponents, so its codec needs no seed.
	p.codec = fixedpoint.NewCodec(p.scheme, fixedpoint.WithExponents(m.BaseExp, m.ExpSpread))
	if m.PairBits < 1 || 2*m.PairBits > p.scheme.Bits()-2 {
		return fmt.Errorf("core: party %d: %d-bit pair fields do not fit the %d-bit modulus", p.index, m.PairBits, p.scheme.Bits())
	}
	// The folded layout packs in slots of exactly two pair fields, and a
	// setup without a slot width ships one slot per ciphertext; planPacking
	// bounds that width by the modulus.
	if m.PackBits != 0 && m.PackBits != 2*m.PairBits {
		return fmt.Errorf("core: party %d: setup packs %d-bit slots, folded pairs need %d", p.index, m.PackBits, 2*m.PairBits)
	}
	plan, err := planPacking(p.codec, m.PairBits, m.PackBits != 0)
	if err != nil {
		return fmt.Errorf("core: party %d: %w", p.index, err)
	}
	p.plan = plan
	if p.shiftCt, err = p.scheme.Encrypt(plan.shift); err != nil {
		return fmt.Errorf("core: party %d encrypting shift: %w", p.index, err)
	}
	if err := p.send(MsgReady{Party: p.index, Features: p.cols, Rows: p.view.Rows()}); err != nil {
		return err
	}
	// Announce the resume point: how many completed rounds the restored
	// fragment covers (0 when fresh). B rewinds to the slowest party.
	return p.send(MsgResume{Party: p.index, Trees: len(p.model.Trees)})
}

// handlePairBatch stores a batch of folded gradient ciphertexts and
// accumulates it straight into the root histogram — with blaster-style
// encryption the batches stream in while Party B is still encrypting, so
// encryption, transfer and root construction overlap. Every size and
// index the frame supplies is bounded by this party's own row count and
// the negotiated exponent range before anything is allocated or indexed.
func (p *passiveParty) handlePairBatch(m MsgPairBatch) error {
	if p.scheme == nil {
		return fmt.Errorf("core: gradients before setup")
	}
	if m.Class < 0 || m.Class >= p.outputs {
		return fmt.Errorf("core: gradient batch for class %d of %d", m.Class, p.outputs)
	}
	n := p.view.Rows()
	if m.Tree < 0 || m.Start < 0 || m.Start > n || len(m.Cts) > n-m.Start {
		return fmt.Errorf("core: gradient batch [%d,%d+%d) of tree %d out of range (%d rows)", m.Start, m.Start, len(m.Cts), m.Tree, n)
	}
	if len(m.Exp) != len(m.Cts) {
		return fmt.Errorf("core: gradient batch with %d ciphertexts and %d exponents", len(m.Cts), len(m.Exp))
	}
	if p.ghAll == nil || p.roundTree != m.Tree {
		// A replayed round (B resumed behind this party's checkpoint)
		// invalidates the trees recorded at or after it: discard them and
		// rebuild from the replay, which is deterministic.
		if m.Tree < len(p.model.Trees) {
			p.model.Trees = p.model.Trees[:m.Tree]
		}
		p.roundTree = m.Tree
		p.tree = m.Tree
		p.ghAll = make([][]fixedpoint.EncNum, p.outputs)
		p.rootPartsAll = make([][]*fixedpoint.Sums, p.outputs)
		for c := range p.ghAll {
			p.ghAll[c] = make([]fixedpoint.EncNum, n)
			p.rootPartsAll[c] = make([]*fixedpoint.Sums, p.cfg.Workers)
			for w := range p.rootPartsAll[c] {
				p.rootPartsAll[c][w] = p.newHist()
			}
		}
		p.gh = p.ghAll[0]
		p.rootCountAll = make([]int, p.outputs)
		p.nodeInsts = make(map[int32][]int32)
		p.tasks = make(map[int32]*histTask)
	}
	gh := p.ghAll[m.Class]
	// The session codec only produces exponents in [BaseExp,
	// BaseExp+ExpSpread); anything else is corrupt or hostile input and
	// must be rejected here — accumulation indexes workspace rows by it.
	minExp, maxExp := p.codec.BaseExp(), p.codec.BaseExp()+p.codec.ExpSpread()
	for k, payload := range m.Cts {
		e := int(m.Exp[k])
		if e < minExp || e >= maxExp {
			return fmt.Errorf("core: gradient exponent %d outside codec range [%d,%d)", e, minExp, maxExp)
		}
		ct, err := p.scheme.Unmarshal(payload)
		if err != nil {
			return err
		}
		gh[m.Start+k] = fixedpoint.EncNum{Exp: e, Ct: ct}
	}

	rootParts := p.rootPartsAll[m.Class]
	err := p.sweepRoot(m.Start, len(m.Cts), len(rootParts), func(w int, rows gbdt.BinView, insts []int32) error {
		return p.accumulate(rootParts[w], rows, insts, gh)
	})
	if err != nil {
		return err
	}
	p.rootCountAll[m.Class] += len(m.Cts)

	if m.Last {
		if p.rootCountAll[m.Class] != n {
			return fmt.Errorf("core: root saw %d of %d instances", p.rootCountAll[m.Class], n)
		}
		p.nodeInsts[rootID] = allInstances(n)
		for _, part := range rootParts[1:] {
			rootParts[0].Merge(part)
		}
		// Class c's tree is the round's tree roundTree+c: tag its root
		// so B's inbox files it under the tree that will consume it.
		if err := p.wireHist(nil, m.Tree+m.Class, 0, NodeHist{Node: rootID}, rootParts[0]); err != nil {
			return err
		}
		p.rootPartsAll[m.Class] = nil
	}
	return nil
}

// sweepRoot accumulates the gradient batch [start, start+count) into the
// root histogram as soon as it lands — the overlap blaster encryption
// exists for — sharded across workers: sweep(w, rows, insts) adds worker
// w's contiguous share (cut where the batch crosses a shard boundary) to
// its own partial accumulator, and the partials merge once the last batch
// arrives.
func (p *passiveParty) sweepRoot(start, count, workers int, sweep func(w int, rows gbdt.BinView, insts []int32) error) error {
	if workers == 0 {
		// The partial accumulators are released once the root ships.
		return fmt.Errorf("core: gradient batch @%d of a stream after its last batch", start)
	}
	began := time.Now()
	endSpan := p.rec.Span(p.lane("BuildHist"), fmt.Sprintf("root batch @%d", start))
	defer endSpan()
	insts := make([]int32, count)
	for k := range insts {
		insts[k] = int32(start + k)
	}
	chunk := max((count+workers-1)/workers, 1)
	shares := make([][]int32, (count+chunk-1)/chunk)
	for w := range shares {
		shares[w] = insts[w*chunk : min((w+1)*chunk, count)]
	}
	err := gbdt.SweepShards(p.view, shares, p.units.run, func(rows gbdt.BinView, w, lo, hi int) error {
		return sweep(w, rows, shares[w][lo:hi])
	})
	if err != nil {
		return fmt.Errorf("core: party %d root histogram sweep: %w", p.index, err)
	}
	addDur(&p.stats.buildHistTime, time.Since(began))
	return nil
}

// advanceClassTree moves this party to the next class tree of the
// current multi-output round: the round's gradient shipment stays live,
// but all per-tree bookkeeping (node instance lists, abortable tasks)
// restarts at the root. The class's root histogram was already built and
// shipped at round start, so B proceeds straight to the root decision
// without another encryption pass.
func (p *passiveParty) advanceClassTree(t int) error {
	p.tree = t
	p.nodeInsts = map[int32][]int32{rootID: allInstances(p.view.Rows())}
	p.tasks = make(map[int32]*histTask)
	class := t % p.outputs
	if class >= len(p.ghAll) || p.ghAll[class] == nil {
		return fmt.Errorf("core: party %d: class %d tree %d started before its gradient stream", p.index, class, t)
	}
	p.gh = p.ghAll[class]
	return nil
}

// wireHist finalizes, packs and ships a node's folded histogram as units
// on the party's queue, in the node layout and in two rounds: per feature,
// the slots of packedFeature (its occupied bins, which tells Party B
// nothing its decryption does not), after which the node's header leaves
// under tree; then per chunk of the node's concatenated slots, the Horner
// chain of Codec.Pack, which is where the time goes under packing, each
// chunk leaving as its own frame the moment its chain ends — so B decrypts
// it while the other chains still run. Without packing every chunk is one
// slot, which ships as it is. Once task is aborted nothing more is sent:
// B never waits for an aborted node, whose ID no later node reuses.
func (p *passiveParty) wireHist(task *histTask, tree, layer int, head NodeHist, hist *fixedpoint.Sums) error {
	start := time.Now()
	defer func() { addDur(&p.stats.packTime, time.Since(start)) }()
	head.Packed, head.Feats = true, make([]FeatHist, p.cols)
	prefixes := make([][]he.Ciphertext, p.cols)
	lane := p.lane("Pack")
	err := p.units.do(task, p.cols, func(j int) error {
		defer p.rec.Span(lane, fmt.Sprintf("node %d feature %d", head.Node, j))()
		head.Feats[j], prefixes[j] = p.packedFeature(hist, j)
		return nil
	})
	if err == nil && task != nil && task.aborted.Load() {
		err = errTaskAborted
	}
	if err != nil {
		return err
	}
	var slots []he.Ciphertext
	for _, pre := range prefixes {
		slots = append(slots, pre...)
	}
	if err := p.send(MsgHistograms{Tree: tree, Layer: layer, Nodes: []NodeHist{head}}); err != nil {
		return err
	}
	chunks := p.plan.chunks(len(slots))
	p.stats.packedSlots.Add(int64(len(slots)))
	p.stats.packedCts.Add(int64(chunks))
	return p.units.do(task, chunks, func(c int) error {
		endSpan := p.rec.Span(lane, fmt.Sprintf("node %d ct %d", head.Node, c))
		lo, hi := p.plan.chunk(len(slots), c)
		packed, err := p.codec.Pack(slots[lo:hi], p.plan.bits)
		endSpan()
		switch {
		case err != nil:
			return err
		case task != nil && task.aborted.Load():
			return errTaskAborted
		}
		return p.send(MsgHistCt{Tree: tree, Node: head.Node, Index: c, Ct: p.scheme.Marshal(packed)})
	})
}

// handleDecisions applies a layer's (tentative or final) node decisions:
// one pass over the shards places every node this party is to split, the
// decisions are applied in order, and the children they scheduled go to
// the accumulation passes together. A split of this party's own must
// name one of its features and a bin below that feature's cut count —
// the range B's split finding picks from — or the frame is refused
// before anything is placed.
func (p *passiveParty) handleDecisions(m MsgDecisions) error {
	placed := make([]*nodeSplit, len(m.Nodes))
	for k, d := range m.Nodes {
		if d.Action != ActionSplitA || d.Owner != p.index {
			continue
		}
		if d.Feature < 0 || int(d.Feature) >= p.cols || d.Bin < 0 || int(d.Bin) >= len(p.mapper.Cuts[d.Feature]) {
			return fmt.Errorf("core: party %d: node %d splits on feature %d bin %d, which this party does not have", p.index, d.Node, d.Feature, d.Bin)
		}
		placed[k] = newNodeSplit(p.nodeInsts[d.Node], d.Feature, d.Bin)
	}
	if err := p.units.routeNodes(p.view, placed); err != nil {
		return fmt.Errorf("core: party %d partitioning layer %d: %w", p.index, m.Layer, err)
	}
	for k, d := range m.Nodes {
		if err := p.applyDecision(m.Layer, d, placed[k]); err != nil {
			return err
		}
	}
	p.startPasses()
	return nil
}

// applyDecision applies one node's decision; sp is the node's placement
// when the split is this party's own.
func (p *passiveParty) applyDecision(layer int, d NodeDecision, sp *nodeSplit) error {
	// Corrective decisions may abort previously-scheduled children.
	if d.AbortLeft != 0 || d.AbortRight != 0 {
		p.abortChildren(d.AbortLeft, d.AbortRight)
	}
	insts, ok := p.nodeInsts[d.Node]
	if !ok {
		return fmt.Errorf("core: party %d: decision for unknown node %d", p.index, d.Node)
	}
	switch d.Action {
	case ActionLeaf:
		// Keep the instance list: under the optimistic protocol a
		// tentative leaf can still be revived by a dirty correction, and
		// per-tree state is discarded wholesale at MsgTreeDone anyway.
		return nil
	case ActionSplitA, ActionSplitB:
		if sp != nil {
			// My split: record it, answer with the placement.
			threshold := p.mapper.Threshold(int(d.Feature), int(d.Bin))
			p.recordSplit(d.Node, d.Feature, threshold, d.LeftID, d.RightID)
			if err := p.send(MsgPlacement{Tree: p.tree, Layer: layer, Node: d.Node, Bits: sp.bits, Count: len(insts)}); err != nil {
				return err
			}
			p.childReady(d.Node, layer, d.LeftID, sp.left, d.RightID, sp.right)
			return nil
		}
		// B's split, or another party's relayed by B: the placement comes
		// with the decision.
		left, right, err := applyPlacement(insts, d.Placement)
		if err != nil {
			return fmt.Errorf("core: party %d: node %d: %w", p.index, d.Node, err)
		}
		p.childReady(d.Node, layer, d.LeftID, left, d.RightID, right)
		return nil
	default:
		return fmt.Errorf("core: unknown decision action %d", d.Action)
	}
}

// handleDirty rolls back dirty nodes of one layer whose winning splits are
// this party's: every node's tentative children are aborted, then the
// corrected splits are placed in one pass and applied in frame order, so
// the placements leave in the order the corrections came.
func (p *passiveParty) handleDirty(ms []MsgDirty) error {
	decs := make([]NodeDecision, len(ms))
	for k, m := range ms {
		p.abortChildren(m.OldLeft, m.OldRight)
		decs[k] = NodeDecision{
			Node:    m.Node,
			Action:  ActionSplitA,
			Owner:   p.index,
			LeftID:  m.LeftID,
			RightID: m.RightID,
			Feature: m.Feature,
			Bin:     m.Bin,
		}
	}
	return p.handleDecisions(MsgDecisions{Layer: ms[0].Layer, Nodes: decs})
}

// abortChildren cancels queued or running histogram tasks and discards the
// instance lists of aborted tentative children.
func (p *passiveParty) abortChildren(ids ...int32) {
	p.tasksMu.Lock()
	defer p.tasksMu.Unlock()
	for _, id := range ids {
		if id == 0 {
			continue
		}
		if t, ok := p.tasks[id]; ok {
			t.aborted.Store(true)
			delete(p.tasks, id)
			p.stats.abortedTasks.Add(1)
		}
		delete(p.nodeInsts, id)
	}
}

// recordSplit stores this party's private split payload in its model
// fragment.
func (p *passiveParty) recordSplit(node int32, feature int32, threshold float64, left, right int32) {
	for len(p.model.Trees) <= p.tree {
		p.model.Trees = append(p.model.Trees, NewFedTree(rootID))
	}
	t := p.model.Trees[p.tree]
	t.Nodes[node] = &FedNode{
		Owner:     p.index,
		Feature:   feature,
		Threshold: threshold,
		Left:      left,
		Right:     right,
	}
}

// childReady registers the children of a split node and schedules their
// histogram builds (children at the depth limit are future leaves and
// need no histograms). Only the child with fewer instances is built —
// Party B applies the same rule to the same instance lists — and its
// frame announces the sibling B derives from it.
func (p *passiveParty) childReady(parent int32, layer int, leftID int32, left []int32, rightID int32, right []int32) {
	p.nodeInsts[leftID] = left
	p.nodeInsts[rightID] = right
	childLayer := layer + 1
	if childLayer >= p.cfg.MaxDepth {
		return
	}
	if len(right) < len(left) {
		p.scheduleHist(childLayer, NodeHist{Node: rightID, Parent: parent, Sibling: leftID}, right)
	} else {
		p.scheduleHist(childLayer, NodeHist{Node: leftID, Parent: parent, Sibling: rightID}, left)
	}
}

// scheduleHist queues one abortable task (the "small sub-tasks which can
// be processed in parallel" of Figure 6) that builds the histogram of the
// node named by head and sends it to B as soon as it is ready — nodes
// stream independently, which is what lets B validate early and abort
// less work. startPasses sets the queued tasks going.
func (p *passiveParty) scheduleHist(layer int, head NodeHist, insts []int32) {
	task := &histTask{node: head.Node, layer: layer, head: head, insts: insts, tree: p.tree, gh: p.gh}
	p.tasksMu.Lock()
	p.tasks[head.Node] = task
	p.pending = append(p.pending, task)
	p.tasksMu.Unlock()
}

// startPasses hands the pending tasks to accumulation passes. Over a
// sharded view one pass walks at a time: a task cannot join a walk under
// way (the shards already passed would reach its histogram out of order)
// and a second walk beside it would read every shard again, so tasks that
// become ready meanwhile — a layer's corrections, posted back to back —
// are taken together by the next pass. A one-shard view has no loads to
// share, and every call starts its tasks at once.
func (p *passiveParty) startPasses() {
	p.tasksMu.Lock()
	defer p.tasksMu.Unlock()
	sv, ok := p.view.(gbdt.ShardedView)
	sharded := ok && sv.NumShards() > 1
	if len(p.pending) == 0 || (sharded && p.walking) {
		return
	}
	p.walking = sharded
	p.taskWG.Add(1)
	go func() {
		defer p.taskWG.Done()
		for group := p.nextPass(); len(group) > 0; group = p.nextPass() {
			p.accumulatePass(group)
		}
	}()
}

// nextPass takes the tasks of one pass off the pending list: at most two
// per worker, so the encrypted histograms alive at once stay O(Workers)
// however wide the layer is. An empty list ends the walk.
func (p *passiveParty) nextPass() []*histTask {
	p.tasksMu.Lock()
	defer p.tasksMu.Unlock()
	n := min(len(p.pending), 2*cap(p.units))
	group := p.pending[:n:n]
	p.pending = p.pending[n:]
	p.walking = p.walking && n > 0
	return group
}

// accumulatePass builds the histograms of a group of nodes in one pass
// over the shards: while a shard is resident every node's rows in it are
// accumulated, a unit per node on the party's queue, in abort-checked
// chunks so a node that turns dirty drops out mid-pass. A node's runs reach
// its histogram in ascending order, so its HAdd sequence is the one a walk
// of its own would make. The unit that adds a node's last run hands the
// node to finishHist; the pass does not wait for it.
//
// A failure comes from the binned view (a shard beyond its self-healing
// budget) or from ciphertexts accumulated off the wire. Neither is a
// protocol bug, and B is blocked waiting for these nodes: abort the
// session instead of panicking or training on a partial histogram.
func (p *passiveParty) accumulatePass(group []*histTask) {
	lists := make([][]int32, len(group))
	for k, task := range group {
		lists[k] = task.insts
		task.hist = p.newHist()
		if len(task.insts) == 0 { // no run will finish it
			p.taskWG.Add(1)
			go p.finishHist(task)
		}
	}
	err := gbdt.SweepShards(p.view, lists, p.units.run, func(rows gbdt.BinView, k, lo, hi int) error {
		task := group[k]
		if !task.aborted.Load() {
			start := time.Now()
			endSpan := p.rec.Span(p.lane("BuildHist"), fmt.Sprintf("node %d", task.node))
			const chunk = 256
			for at := lo; at < hi && !task.aborted.Load(); at += chunk {
				if err := p.accumulate(task.hist, rows, task.insts[at:min(at+chunk, hi)], task.gh); err != nil {
					return fmt.Errorf("core: party %d histogram for node %d: %w", p.index, task.node, err)
				}
			}
			endSpan()
			addDur(&p.stats.buildHistTime, time.Since(start))
		}
		if hi == len(task.insts) {
			p.taskWG.Add(1) // under the pass's own count
			go p.finishHist(task)
		}
		return nil
	})
	if err != nil {
		p.fail(err)
	}
}

// finishHist wires an accumulated node — finalize and pack, units on the
// party's queue, each frame shipped as it is ready. An aborted node is
// dropped silently; a packing failure or a link that refuses a frame fails
// the session.
func (p *passiveParty) finishHist(task *histTask) {
	defer p.taskWG.Done()
	err := p.wireHist(task, task.tree, task.layer, task.head, task.hist)
	if errors.Is(err, errTaskAborted) {
		return
	}
	if err != nil {
		p.fail(fmt.Errorf("core: party %d histogram for node %d: %w", p.index, task.node, err))
		return
	}
	p.tasksMu.Lock()
	delete(p.tasks, task.node)
	p.tasksMu.Unlock()
}

// applyPlacement splits an instance list by a placement bitmap (bit set =
// left), preserving order. A bitmap that is not ⌈len(insts)/8⌉ bytes is an
// ErrRoutingBits, refused before any bit is read.
func applyPlacement(insts []int32, bm []byte) (left, right []int32, err error) {
	if want := (len(insts) + 7) / 8; len(bm) != want {
		return nil, nil, fmt.Errorf("%w: %d-byte placement for %d instances, want %d", ErrRoutingBits, len(bm), len(insts), want)
	}
	for k, inst := range insts {
		if bitmapGet(bm, k) {
			left = append(left, inst)
		} else {
			right = append(right, inst)
		}
	}
	return left, right, nil
}

// lane names this party's Gantt lane for a phase.
func (p *passiveParty) lane(phase string) trace.Lane {
	return trace.Lane(fmt.Sprintf("A%d:%s", p.index, phase))
}

// rootID is the fixed node ID of every tree's root.
const rootID int32 = 1
