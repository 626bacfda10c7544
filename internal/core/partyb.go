package core

import (
	"errors"
	"fmt"
	"math"
	"math/big"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/checkpoint"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/objective"
	"vf2boost/internal/trace"
)

// activeParty is the Party B engine: it owns the labels and the private
// key, orchestrates the training routine, decrypts passive histograms and
// arbitrates the globally best split of every node.
type activeParty struct {
	cfg Config

	// view is B's binned feature matrix (in-memory or out-of-core);
	// labels and rows are its label vector and instance count.
	view   gbdt.BinView
	labels []float64
	rows   int
	mapper *gbdt.BinMapper

	dec   he.Decryptor
	codec *fixedpoint.Codec
	// pairs is the folded ⟨g,h⟩ plaintext layout of the gradient stream
	// and every passive histogram cell.
	pairs fixedpoint.PairPlan
	// batch is the blaster batch size in instances.
	batch int

	links []*link
	// inboxes[i] files the frames passive party i sends; sums[i] are its
	// histograms of the round's nodes B decrypted or derived, in the exact
	// integer domain: what sibling derivation subtracts from.
	inboxes []*inbox
	sums    []map[inboxKey]nodeSums
	// fetches are the shipped nodes of the layer being validated that
	// prefetch is decrypting in the background, by party and histKey.
	fetches map[partyKey]*nodeFetch
	// aborted latches that B has told every passive party why it ends the
	// session; decryption units may race to set it.
	aborted atomic.Bool
	// featCounts[i] is the feature count passive party i announced at
	// setup; its histograms must carry exactly that many features.
	featCounts []int

	plan packPlan

	units unitQueue // B's encryptions and decryptions, cfg.Workers at a time
	stats *Stats

	// offsets[i] is the global feature offset of passive party i; bOffset
	// is Party B's own.
	offsets []int32
	bOffset int32

	// Per-tree training state. margins/grads/hess alias the current
	// output's row of the *All matrices below, so the single-output
	// protocol code reads them unchanged.
	margins []float64
	grads   []float64
	hess    []float64
	nextID  int32

	// Multi-output state: outputs is the objective's k (1 for binary);
	// global tree t trains output t mod k. The *All matrices are k×n; the
	// objective fills all k rows once per boosting round and the round's
	// k trees consume them through one shipment of k class streams.
	outputs    int
	marginsAll [][]float64
	gradsAll   [][]float64
	hessAll    [][]float64

	model *PartyModel

	// ckpt, when set, snapshots the training state after every completed
	// tree; resume restores the newest round every party can continue
	// from (arbitrated via MsgResume at setup). resumeTrees holds each
	// passive party's announced round.
	ckpt        *checkpoint.Store
	resume      bool
	resumeTrees []int
	// backOff latches, for the rest of the session, that a speculating
	// tree's dirty ratio exceeded 1/2: no later tree speculates. It is part
	// of the checkpoint so a resumed run follows the same schedule (and
	// allocates the same node IDs) as an uninterrupted one.
	backOff bool

	// rec, when set, records Gantt spans of the cryptography phases
	// (Figures 4 and 5). A nil recorder is a no-op.
	rec *trace.Recorder

	// perTreeTime records wall time per boosting round for Figure 10.
	perTreeTime []time.Duration
}

// newActivePartyView builds Party B over a binned view and its label
// vector: the in-memory BinnedMatrix of a dataset, or an out-of-core shard
// store. cfg has been normalized, so its Objective is set.
func newActivePartyView(view gbdt.BinView, labels []float64, cfg Config, dec he.Decryptor, links []*link, stats *Stats) (*activeParty, error) {
	if labels == nil {
		return nil, fmt.Errorf("core: party B has no labels")
	}
	if len(labels) != view.Rows() {
		return nil, fmt.Errorf("core: party B has %d labels for %d rows", len(labels), view.Rows())
	}
	if err := cfg.Objective.Validate(labels); err != nil {
		return nil, fmt.Errorf("core: party B labels: %w", err)
	}
	// A bound-fitting objective (squared loss) derives its gradient bound
	// from the observed labels before the pair and packing plans are
	// built, so the historic constant can't silently overflow a field.
	// The fitted copy is B's own: the caller's objective stays unfitted.
	if bf, ok := cfg.Objective.(objective.BoundFitter); ok {
		cfg.Objective = bf.FitBound(labels)
	}
	b := &activeParty{
		cfg:    cfg,
		view:   view,
		labels: labels,
		rows:   view.Rows(),
		mapper: view.Mapper(),
		dec:    dec,
		codec: fixedpoint.NewCodec(dec,
			fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread),
			fixedpoint.WithSeed(cfg.Seed)),
		links:   links,
		stats:   stats,
		units:   make(unitQueue, max(cfg.Workers, 1)),
		model:   &PartyModel{Party: len(links)},
		outputs: cfg.outputs(),
	}
	// An unset batch size follows the row count: about sixteen batches
	// per stream keep encryption, transfer and root accumulation
	// overlapped at any size, and the un-overlapped tail is one batch.
	b.batch = cfg.BatchSize
	if b.batch <= 0 {
		b.batch = min(max(b.rows/16, 64), 1024)
	}
	var err error
	if b.pairs, err = b.codec.PlanPairs(b.rows, cfg.gradBound()); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	// Every node ships the shifted prefixes of its folded bins, packed
	// under HistogramPacking and one per ciphertext without it.
	if b.plan, err = planPacking(b.codec, b.pairs.W, cfg.HistogramPacking); err != nil {
		return nil, err
	}
	return b, nil
}

// fastObfuscationScheme is the optional capability a decryptor exposes
// when it can switch to DJN-style fast obfuscation (he.PaillierDecryptor
// does; the mock scheme has nothing to speed up).
type fastObfuscationScheme interface {
	EnableFastObfuscation() error
}

// setup shares the cryptographic context and learns each passive party's
// feature count (for the global feature order).
func (b *activeParty) setup() error {
	setup := MsgSetup{
		Scheme:    b.cfg.Scheme,
		N:         b.dec.N().Bytes(),
		Bits:      b.dec.Bits(),
		BaseExp:   b.cfg.BaseExp,
		ExpSpread: b.cfg.ExpSpread,
	}
	if b.cfg.FastObfuscation {
		if fo, ok := b.dec.(fastObfuscationScheme); ok {
			// Derive the base before any encryption, the shift's below
			// included, so every obfuscator B draws is a short h^x.
			if err := fo.EnableFastObfuscation(); err != nil {
				return fmt.Errorf("core: enabling fast obfuscation: %w", err)
			}
		}
	} else if fo, ok := b.dec.(interface{ DisableFastObfuscation() }); ok {
		// A decryptor shared across sessions (benchmarks do this) may
		// still carry a fast base from a previous run; a baseline session
		// must pay the paper's full r^n cost.
		fo.DisableFastObfuscation()
	}
	// The packing shift seeds every prefix chain the passive parties pack.
	// B encrypts it once for all of them, directly rather than through the
	// codec, whose counters count the gradient stream: a passive party
	// encrypts nothing.
	shift, err := b.dec.Encrypt(b.plan.shift)
	if err != nil {
		return fmt.Errorf("core: encrypting the packing shift: %w", err)
	}
	setup.ShiftCt = b.dec.Marshal(shift)
	setup.PairBits = b.pairs.W
	if b.cfg.HistogramPacking {
		setup.PackBits = b.plan.bits // zero ships one slot per ciphertext
	}
	// Objective negotiation: named for any non-default objective so the
	// passive party can resolve it in its own registry (and reject the
	// session before accepting a single ciphertext if it cannot). Binary
	// sessions leave the fields empty — their setup frame is unchanged.
	if name := b.cfg.Objective.Name(); name != "binary" {
		setup.Objective = name
		setup.Outputs = b.outputs
	}
	for _, l := range b.links {
		if err := l.send(setup); err != nil {
			return err
		}
	}
	b.inboxes = make([]*inbox, len(b.links))
	b.sums = make([]map[inboxKey]nodeSums, len(b.links))
	for i, l := range b.links {
		b.inboxes[i] = startInbox(l, b.plan)
		b.sums[i] = make(map[inboxKey]nodeSums)
	}
	b.offsets = make([]int32, len(b.links))
	b.featCounts = make([]int, len(b.links))
	b.resumeTrees = make([]int, len(b.links))
	off := int32(0)
	for i := range b.links {
		f, err := b.await(i, inboxKey{kind: kindReady})
		if err != nil {
			return err
		}
		r := f.(MsgReady)
		if r.Rows != b.rows {
			return fmt.Errorf("core: party %d has %d rows, party B has %d (instances not aligned)",
				i, r.Rows, b.rows)
		}
		if r.Features < 0 || r.Features > math.MaxInt32-int(off) {
			return fmt.Errorf("core: party %d announces %d features", i, r.Features)
		}
		b.offsets[i], b.featCounts[i] = off, r.Features
		off += int32(r.Features)
		// Each party follows its MsgReady with a MsgResume announcing the
		// round its restored checkpoint covers (0 when fresh).
		if f, err = b.await(i, inboxKey{kind: kindResume}); err != nil {
			return err
		}
		b.resumeTrees[i] = f.(MsgResume).Trees
	}
	b.bOffset = off
	return nil
}

// train runs all boosting rounds and returns B's model fragment. A
// k-output objective runs cfg.Trees rounds of k trees each (global tree
// t = round·k + class): the objective fills all k gradient rows at the
// top of the round and the round's k trees ship through one encryption
// pass, issued with the first tree.
func (b *activeParty) train() (*PartyModel, error) {
	if err := b.setup(); err != nil {
		return nil, err
	}
	n := b.rows
	k := b.outputs
	b.marginsAll = make([][]float64, k)
	b.gradsAll = make([][]float64, k)
	b.hessAll = make([][]float64, k)
	for c := 0; c < k; c++ {
		b.marginsAll[c] = make([]float64, n)
		b.gradsAll[c] = make([]float64, n)
		b.hessAll[c] = make([]float64, n)
		if init := b.cfg.Objective.InitMargin(b.labels, c); init != 0 {
			for i := range b.marginsAll[c] {
				b.marginsAll[c][i] = init
			}
		}
	}
	b.margins, b.grads, b.hess = b.marginsAll[0], b.gradsAll[0], b.hessAll[0]

	totalTrees := b.cfg.Trees * k
	startTree := 0
	if b.ckpt != nil && b.resume {
		trees, st, err := b.resumePoint()
		if err != nil {
			return nil, err
		}
		if trees > 0 {
			b.model.Trees = st.Fragment.Trees
			// Checkpoint margins are the k×n matrix flattened class-major.
			for c := 0; c < k; c++ {
				copy(b.marginsAll[c], st.Margins[c*n:(c+1)*n])
			}
			b.backOff = st.BackOff
			startTree = trees
		}
	}

	var start time.Time
	for t := startTree; t < totalTrees; t++ {
		class := t % k
		b.margins = b.marginsAll[class]
		b.grads = b.gradsAll[class]
		b.hess = b.hessAll[class]
		if class == 0 {
			start = time.Now()
			if err := b.cfg.Objective.GradHess(b.labels, b.marginsAll, b.gradsAll, b.hessAll); err != nil {
				return nil, fmt.Errorf("core: objective %s: %w", b.cfg.Objective.Name(), err)
			}
			// One shipment per round carries every class's gradients.
			if err := b.sendGradients(t); err != nil {
				return nil, err
			}
		}
		// A tree speculates unless its round has several trees (they share
		// one gradient shipment, and the tentative/abort machinery assumes
		// node IDs restart with every shipment) or an earlier tree of the
		// session lost its bet: once a speculating tree's dirty ratio
		// exceeds 1/2 the re-done work outweighs the hidden idle time, and
		// backOff latches for the rest of the session.
		speculate := k == 1 && b.cfg.OptimisticSplit && !b.backOff
		dirtyBefore := b.stats.DirtyNodes()
		splitsBefore := b.stats.SplitsByA() + b.stats.SplitsByB()
		tree, leaves, err := b.buildTree(t, speculate)
		if err != nil {
			return nil, err
		}
		if speculate {
			dirty := b.stats.DirtyNodes() - dirtyBefore
			splits := b.stats.SplitsByA() + b.stats.SplitsByB() - splitsBefore
			b.backOff = splits > 0 && float64(dirty)/float64(splits) > 0.5
		}
		b.model.Trees = append(b.model.Trees, tree)
		for _, lf := range leaves {
			for _, i := range lf.insts {
				b.margins[i] += b.cfg.LearningRate * lf.weight
			}
		}
		for _, l := range b.links {
			if err := l.send(MsgTreeDone{Tree: t}); err != nil {
				return nil, err
			}
		}
		b.stats.treesFinished.Add(1)
		if class != k-1 {
			continue
		}
		// Round boundary: drop the round's frames and sums, and checkpoint.
		// Mid-round trees never reset — the round's later per-class root
		// histograms may already be filed.
		for i, in := range b.inboxes {
			in.reset()
			clear(b.sums[i])
		}
		if b.ckpt != nil {
			if err := b.saveCheckpoint(t + 1); err != nil {
				return nil, fmt.Errorf("core: party B checkpoint: %w", err)
			}
		}
		b.perTreeTime = append(b.perTreeTime, time.Since(start))
	}
	for _, l := range b.links {
		if err := l.send(MsgShutdown{}); err != nil {
			return nil, err
		}
	}
	return b.model, nil
}

// sendGradients encrypts the round's gradient statistics and ships them to
// every passive party. With blaster encryption the instances stream in
// batches so encryption, WAN transfer, and root-histogram construction in
// the passive parties overlap (Section 4.1); without it one bulk batch is
// sent after all encryption finishes. A k-output round ships k class
// streams back-to-back, each tagged with its Class, all under the shipment
// tree t = round·k.
func (b *activeParty) sendGradients(t int) error {
	for c := 0; c < b.outputs; c++ {
		if err := b.sendGradStream(t, c); err != nil {
			return err
		}
	}
	return nil
}

// sendGradStream encrypts one output's gradient vector as folded pairs,
// b.batch instances per frame, and every frame goes to every passive
// party. Blaster mode ships finished frames from a background goroutine
// (the paper's "blasts the ciphers to Party A in a background thread"), so
// encryption of batch k+1 overlaps the WAN transmission of batch k; without
// it one bulk frame is sent inline.
func (b *activeParty) sendGradStream(t, class int) (err error) {
	n, batch := b.rows, b.batch
	ship := func(m MsgPairBatch) error {
		for _, l := range b.links {
			if err := l.send(m); err != nil {
				return err
			}
		}
		return nil
	}
	if !b.cfg.BlasterEncryption {
		batch = n
	} else {
		toLinks := ship
		sendCh := make(chan MsgPairBatch, 2) // one frame in flight, one ready behind it
		var sendErr error
		done := make(chan struct{})
		go func() {
			defer close(done)
			for m := range sendCh {
				if sendErr = toLinks(m); sendErr != nil {
					return
				}
			}
		}()
		// Whatever ends the loop, the shipper exits before the stream returns.
		defer func() {
			close(sendCh)
			<-done
			if err == nil {
				err = sendErr
			}
		}()
		ship = func(m MsgPairBatch) error {
			select {
			case sendCh <- m:
				return nil
			case <-done:
				return sendErr
			}
		}
	}
	for start := 0; start < n; start += batch {
		end := min(start+batch, n)
		encStart := time.Now()
		endSpan := b.rec.Span("B:Encrypt", fmt.Sprintf("tree %d [%d,%d)", t, start, end))
		m := MsgPairBatch{
			Tree:  t,
			Start: start,
			Cts:   make([][]byte, end-start),
			Exp:   make([]int16, end-start),
			Last:  end == n,
			Class: class,
		}
		if err := b.encryptRange(start, b.gradsAll[class], b.hessAll[class], &m); err != nil {
			return err
		}
		endSpan()
		addDur(&b.stats.encryptTime, time.Since(encStart))
		if err := ship(m); err != nil {
			return err
		}
	}
	return nil
}

// encryptRange fills a gradient batch with one folded ciphertext per
// instance, parallelized across the configured workers. Instance i's
// exponent is a pure function of (seed, tree, class, i), so the draw does
// not depend on how the workers interleave. A pair the folded layout
// cannot carry (fixedpoint.ErrPairRange) fails the batch and with it the
// session.
func (b *activeParty) encryptRange(start int, grads, hess []float64, m *MsgPairBatch) error {
	const span = 16 // instances per unit: a mock encryption is cheaper than claiming one
	return b.units.do(nil, (len(m.Cts)+span-1)/span, func(u int) error {
		for k := u * span; k < min((u+1)*span, len(m.Cts)); k++ {
			i := start + k
			e, err := b.pairs.Encrypt(grads[i], hess[i], b.codec.ExpAt(m.Tree, m.Class, i))
			if err != nil {
				return fmt.Errorf("core: instance %d: %w", i, err)
			}
			m.Cts[k], m.Exp[k] = b.dec.Marshal(e.Ct), int16(e.Exp)
		}
		return nil
	})
}

// bNode is Party B's bookkeeping for one live tree node.
type bNode struct {
	id    int32
	insts []int32
	g, h  float64
	// parent and sibling place the node in the split that made it (zero on
	// the root). derived marks the larger child of a split: the passive
	// parties ship only its sibling, and B derives this node's histograms
	// as parent − sibling.
	parent, sibling int32
	derived         bool
}

// leafResult is a finalized leaf: its instances receive the weight.
type leafResult struct {
	insts  []int32
	weight float64
}

// candidate is a best-split candidate tagged with its owner for global
// arbitration.
type candidate struct {
	split      gbdt.Split
	party      int // passive index, or len(links) for B
	globalFeat int32
}

func (c candidate) valid() bool { return c.split.Valid() }

// betterCandidate imposes the global deterministic order: gain first, then
// global feature index, then bin — the same rule gbdt.Better applies
// locally, so federated arbitration matches co-located training.
func betterCandidate(a, b candidate) bool {
	if a.split.Gain != b.split.Gain {
		return a.split.Gain > b.split.Gain
	}
	if a.globalFeat != b.globalFeat {
		return a.globalFeat < b.globalFeat
	}
	return a.split.Bin < b.split.Bin
}

// ownBest finds Party B's best split for a node from its plaintext
// histogram.
func (b *activeParty) ownBest(h *gbdt.Histogram, node *bNode) candidate {
	start := time.Now()
	s := gbdt.BestSplit(h, node.g, node.h, b.cfg.Split)
	addDur(&b.stats.findSplitTime, time.Since(start))
	c := candidate{split: s, party: len(b.links)}
	if s.Valid() {
		c.globalFeat = b.bOffset + s.Feature
	}
	return c
}

// featSums are one feature's histogram bin sums in the exact integer
// domain: the signed ⟨g,h⟩ fields of bin k at the plan's exponent, nil
// fields marking an empty bin. The node layout's shifted prefixes decrypt
// to this form, and the floats split finding reads are decoded from it.
type featSums struct {
	g, h []*big.Int
}

// nodeSums are a passive party's histogram of one node, per feature.
type nodeSums []featSums

func newFeatSums(numBins int) featSums {
	return featSums{g: make([]*big.Int, numBins), h: make([]*big.Int, numBins)}
}

// floats decodes the bin sums at encoding base `base` and exponent exp.
func (f featSums) floats(base, exp int) (g, h []float64) {
	g = make([]float64, len(f.g))
	h = make([]float64, len(f.g))
	for k := range f.g {
		if f.g[k] != nil {
			g[k] = fixedpoint.DecodeSigned(f.g[k], base, exp)
			h[k] = fixedpoint.DecodeSigned(f.h[k], base, exp)
		}
	}
	return g, h
}

// passiveBest finds one passive party's best split of a node from its
// histogram there.
func (b *activeParty) passiveBest(party, tree int, node *bNode) (candidate, error) {
	sums, err := b.passiveSums(party, tree, node)
	if err != nil {
		return candidate{}, err
	}
	findStart := time.Now()
	best := candidate{split: gbdt.NoSplit, party: party}
	for j, fs := range sums {
		g, h := fs.floats(b.codec.Base(), b.plan.exp)
		s := gbdt.BestSplitForFeature(int32(j), g, h, node.g, node.h, b.cfg.Split)
		if !s.Valid() {
			continue
		}
		c := candidate{split: s, party: party, globalFeat: b.offsets[party] + int32(j)}
		if !best.valid() || betterCandidate(c, best) {
			best = c
		}
	}
	addDur(&b.stats.findSplitTime, time.Since(findStart))
	return best, nil
}

// passiveSums returns a passive party's histogram of a node of the given
// tree.
func (b *activeParty) passiveSums(party, tree int, node *bNode) (nodeSums, error) {
	s, err := b.sumsOf(party, tree, node)
	return s, b.refuse(err)
}

// sumsOf fetches and decrypts, once, the histogram a passive party shipped
// for a node. The larger child of a split is never shipped: B holds the
// exact integers of its parent and of its sibling, so the node is their
// plaintext difference, which is what the party's homomorphic parent −
// child would have decrypted to. B learns nothing by it that it could not
// already compute, and the passive party saves a packing, the link a
// histogram and B its decryptions.
func (b *activeParty) sumsOf(party, tree int, node *bNode) (nodeSums, error) {
	sums := b.sums[party]
	if s, ok := sums[histKey(tree, node.id)]; ok {
		return s, nil
	}
	if !node.derived {
		s, err := b.fetched(party, tree, node)
		if err == nil {
			sums[histKey(tree, node.id)] = s
		}
		return s, err
	}
	parent, ok := sums[histKey(tree, node.parent)]
	if !ok {
		return nil, fmt.Errorf("%w: party %d node %d: parent %d has no histogram in tree %d",
			ErrSiblingDerivation, party, node.id, node.parent, tree)
	}
	child, err := b.sumsOf(party, tree, &bNode{id: node.sibling, parent: node.parent, sibling: node.id})
	if err != nil {
		return nil, err
	}
	s, err := b.deriveSibling(parent, child)
	if err != nil {
		return nil, fmt.Errorf("party %d node %d = %d − %d: %w", party, node.id, node.parent, node.sibling, err)
	}
	sums[histKey(tree, node.id)] = s
	return s, nil
}

// fetchSums waits for the header a passive party ships for a node and
// decrypts the node's ciphertexts as they land. Every shipped non-root
// node is the smaller child of its split and must announce exactly the
// sibling B is about to derive from it; a root announces nothing.
func (b *activeParty) fetchSums(party, tree int, node *bNode) (nodeSums, error) {
	f, err := b.await(party, histKey(tree, node.id))
	if err != nil {
		return nil, err
	}
	nh := f.(NodeHist)
	if nh.Parent != node.parent || nh.Sibling != node.sibling {
		return nil, fmt.Errorf("%w: party %d node %d of tree %d announces sibling %d of parent %d, expected %d of %d",
			ErrSiblingDerivation, party, node.id, tree, nh.Sibling, nh.Parent, node.sibling, node.parent)
	}
	return b.unpackNode(party, tree, nh)
}

// partyKey names a passive party's frame or node.
type partyKey struct {
	party int
	key   inboxKey
}

// nodeFetch is one shipped node prefetch fetches and decrypts: its sums or
// error once done is closed.
type nodeFetch struct {
	done chan struct{}
	sums nodeSums
	err  error
}

// prefetchAhead is how many shipped nodes of a layer B fetches at once
// per passive party.
const prefetchAhead = 2

// prefetch starts fetching and decrypting, in the background, the
// histograms every passive party ships for a layer's nodes — the nodes
// not derived from a sibling — in node order and prefetchAhead nodes at a
// time per party. The validation loop takes them in the same order
// (fetched), so B decrypts the ciphertexts of the next nodes as they land
// while it still waits for this one's, and its decisions depend only on
// what it decrypts. Every prefetched node is taken before the layer ends;
// on a failed session the prefetches end with the links.
func (b *activeParty) prefetch(t int, nodes []*bNode) {
	if b.fetches == nil {
		b.fetches = make(map[partyKey]*nodeFetch)
	}
	for party := range b.links {
		var shipped []*bNode
		var fetches []*nodeFetch
		for _, nd := range nodes {
			if !nd.derived {
				f := &nodeFetch{done: make(chan struct{})}
				b.fetches[partyKey{party, histKey(t, nd.id)}] = f
				shipped, fetches = append(shipped, nd), append(fetches, f)
			}
		}
		go func() {
			ahead := make(chan struct{}, prefetchAhead)
			for i, nd := range shipped {
				ahead <- struct{}{}
				go func() {
					f := fetches[i]
					f.sums, f.err = b.fetchSums(party, t, nd)
					close(f.done)
					<-ahead
				}()
			}
		}()
	}
}

// fetched returns a shipped node's sums: from its prefetch, or fetched and
// decrypted now when no prefetch holds it.
func (b *activeParty) fetched(party, tree int, node *bNode) (nodeSums, error) {
	k := partyKey{party, histKey(tree, node.id)}
	f, ok := b.fetches[k]
	if !ok {
		return b.fetchSums(party, tree, node)
	}
	delete(b.fetches, k)
	<-f.done
	return f.sums, f.err
}

// await waits for the frame a passive party files under k; the wait is
// Party B's idle time unless another of B's waits or a decryption covers
// it (idleClock). A refused frame aborts the session on every link.
func (b *activeParty) await(party int, k inboxKey) (any, error) {
	b.stats.bIdle.change(1, 0)
	f, err := b.inboxes[party].await(k)
	b.stats.bIdle.change(-1, 0)
	return f, b.refuse(err)
}

// refuse aborts the session on every link when err refuses a peer's frame
// by name — a broken sibling-derivation or node layout contract, or a peer
// on a retired one — and returns err.
func (b *activeParty) refuse(err error) error {
	for _, refusal := range []error{ErrSiblingDerivation, ErrPackedLayout, ErrLegacyLayout} {
		if errors.Is(err, refusal) {
			b.abort(err) // the refusals exclude one another
		}
	}
	return err
}

// abort tells every passive party, once, why B is ending the session before
// it unwinds, so none keeps building histograms for a peer that is gone,
// and ends B's own waits on every link with err, prefetches included.
// Concurrent decryption units may call it; one sends. The sends are best
// effort: the session is failing either way.
func (b *activeParty) abort(err error) {
	if !b.aborted.CompareAndSwap(false, true) {
		return
	}
	for _, l := range b.links {
		_ = l.send(MsgAbort{Party: len(b.links), Reason: err.Error()})
	}
	for _, in := range b.inboxes {
		in.file(nil, err)
	}
}

// deriveSibling computes a node's histogram as parent − child, bin by
// bin, in the exact integer domain, where both operands sit at the plan's
// exponent as the homomorphic subtraction's would. A child can only have mass where its parent does, the hessian field of a
// difference of honest sums is non-negative, and both fields stay inside
// their share of the plaintext; anything else is a corrupt or hostile
// histogram and is refused before it can steer a split.
func (b *activeParty) deriveSibling(parent, child nodeSums) (nodeSums, error) {
	fieldBits := b.pairs.W - 1
	out := make(nodeSums, len(parent))
	for j, pf := range parent {
		cf := child[j]
		if len(cf.g) != len(pf.g) {
			return nil, fmt.Errorf("%w: feature %d has %d bins, its parent %d", ErrSiblingDerivation, j, len(cf.g), len(pf.g))
		}
		sf := newFeatSums(len(pf.g))
		for k := range pf.g {
			switch {
			case cf.g[k] == nil:
				sf.g[k], sf.h[k] = pf.g[k], pf.h[k]
			case pf.g[k] == nil:
				return nil, fmt.Errorf("%w: feature %d bin %d has mass its parent lacks", ErrSiblingDerivation, j, k)
			default:
				g := new(big.Int).Sub(pf.g[k], cf.g[k])
				h := new(big.Int).Sub(pf.h[k], cf.h[k])
				if h.Sign() < 0 || h.BitLen() > fieldBits || g.BitLen() > fieldBits {
					return nil, fmt.Errorf("%w: feature %d bin %d derives fields of %d and %d bits (h sign %d) for %d-bit fields",
						ErrSiblingDerivation, j, k, g.BitLen(), h.BitLen(), h.Sign(), fieldBits)
				}
				sf.g[k], sf.h[k] = g, h
			}
		}
		out[j] = sf
	}
	return out, nil
}

// unpackNode reverses the node layout every session ships, packed or one
// slot per ciphertext; a node outside it is the retired two-ciphertext
// frame (ErrLegacyLayout). The header is checked against the session's
// plan before it sizes anything: feature count, every bitmap against its
// bin count. Its slots fix the chunk count, and the chunks decrypt as
// units (awaitUnits), each awaiting its own ciphertext frame and
// decrypting it on one of B's worker slots the moment it lands, in
// whatever order the frames come.
// Each plaintext must fit its chunk's slots (a slot that outgrew its 2W
// bits carries upward, so the top of the chunk catches it). The bitmaps
// slice the slots back to bins: a feature's first slot carries the shift,
// every later one the prefix before it, an unslotted bin stays nil.
// Differencing stays in the integer domain — shifted prefixes exceed
// float64's exact range.
//
// A ciphertext B refuses fails the node's other waits through the inbox; a
// failed link or the peer's MsgAbort surfaces as itself.
func (b *activeParty) unpackNode(party, tree int, nh NodeHist) (nodeSums, error) {
	bad := func(format string, args ...any) error {
		return fmt.Errorf("%w: party %d node %d: %s", ErrPackedLayout, party, nh.Node, fmt.Sprintf(format, args...))
	}
	switch {
	case !nh.Packed:
		return nil, fmt.Errorf("%w: party %d node %d", ErrLegacyLayout, party, nh.Node)
	case len(nh.Feats) != b.featCounts[party]:
		return nil, bad("%d features, announced %d", len(nh.Feats), b.featCounts[party])
	}
	for j, fh := range nh.Feats {
		if fh.NumBins < 0 || fh.NumBins > maxWireBins || len(fh.Occupied) != (fh.NumBins+7)/8 {
			return nil, bad("feature %d claims %d bins under a %d-byte bitmap", j, fh.NumBins, len(fh.Occupied))
		}
		if tail := fh.NumBins % 8; tail != 0 && fh.Occupied[len(fh.Occupied)-1]>>tail != 0 {
			return nil, bad("feature %d marks bins beyond its %d", j, fh.NumBins)
		}
	}
	slots := nodeSlots(nh.Feats)
	vals := make([]*big.Int, slots)
	lane := trace.Lane("B:Decrypt+FindSplitA")
	err := b.awaitUnits(b.plan.chunks(slots), func(c int) (any, error) {
		return b.await(party, ctKey(tree, nh.Node, c))
	}, func(c int, f any) error {
		b.stats.bIdle.change(0, 1)
		defer b.stats.bIdle.change(0, -1)
		start := time.Now()
		endSpan := b.rec.Span(lane, fmt.Sprintf("node %d ct %d", nh.Node, c))
		plain, err := b.decryptChunk(f.(MsgHistCt).Ct)
		endSpan()
		addDur(&b.stats.decryptTime, time.Since(start))
		lo, hi := b.plan.chunk(slots, c)
		if err == nil && plain.BitLen() > (hi-lo)*b.plan.bits {
			err = fmt.Errorf("decrypts to %d bits for %d slots of %d", plain.BitLen(), hi-lo, b.plan.bits)
		}
		if err != nil {
			err = bad("ciphertext %d: %v", c, err)
			b.inboxes[party].file(nil, err) // the node's other waits end
			return err
		}
		copy(vals[lo:hi], fixedpoint.Unpack(plain, b.plan.bits, hi-lo))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sums := make(nodeSums, len(nh.Feats))
	for j, fh := range nh.Feats {
		fs := newFeatSums(fh.NumBins)
		prev := b.plan.shift
		for k := 0; k < fh.NumBins; k++ {
			if bitmapGet(fh.Occupied, k) {
				fs.g[k], fs.h[k] = b.pairs.Split(new(big.Int).Sub(vals[0], prev))
				prev, vals = vals[0], vals[1:]
			}
		}
		sums[j] = fs
	}
	return sums, nil
}

// awaitUnits runs n units that each wait for their input (wait, holding no
// worker) and then process it on one of B's worker slots (run), claiming
// indices in order from cap(b.units) waiters. Since no slot is held while
// waiting, units of nodes fetched at once decrypt whichever ciphertexts
// have landed. It returns the error of the lowest failed index, once
// every waiter is done; after a failure the remaining indices are dropped.
func (b *activeParty) awaitUnits(n int, wait func(i int) (any, error), run func(i int, f any) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := min(n, cap(b.units)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n && !failed.Load(); i = int(next.Add(1) - 1) {
				f, err := wait(i)
				if err == nil {
					err = b.units.run(1, func(int) error { return run(i, f) })
				}
				if err != nil {
					errs[i] = err
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// decryptChunk decrypts one chunk ciphertext off the wire.
func (b *activeParty) decryptChunk(raw []byte) (*big.Int, error) {
	ct, err := b.dec.Unmarshal(raw)
	if err != nil {
		return nil, err
	}
	plain, err := b.dec.Decrypt(ct)
	if err == nil {
		b.codec.Stats().AddDecryptions(1)
	}
	return plain, err
}

// childStats computes exact child gradient totals from B's plaintext
// gradient arrays (B always knows node membership).
func (b *activeParty) childStats(insts []int32) (g, h float64) {
	for _, i := range insts {
		g += b.grads[i]
		h += b.hess[i]
	}
	return g, h
}

// allocID hands out the next tree-node ID.
func (b *activeParty) allocID() int32 {
	b.nextID++
	return b.nextID
}

// buildOwnHistograms builds Party B's plaintext histograms for a set of
// nodes.
func (b *activeParty) buildOwnHistograms(nodes []*bNode) ([]*gbdt.Histogram, error) {
	lists := make([][]int32, len(nodes))
	for k, nd := range nodes {
		lists[k] = nd.insts
	}
	return gbdt.BuildHistograms(b.view, lists, b.grads, b.hess, b.cfg.Workers)
}
