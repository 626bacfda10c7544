package core

import (
	"crypto/rand"
	"fmt"
	"path/filepath"
	"time"

	"vf2boost/internal/checkpoint"
	"vf2boost/internal/dataset"
	"vf2boost/internal/fault"
	"vf2boost/internal/fault/fsfault"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/mq"
	"vf2boost/internal/trace"
)

// Session wires one active and one or more passive parties through a
// message broker and runs federated training in-process. The parties
// exchange exactly the same wire messages whether the broker is local,
// WAN-shaped, or fronted by the TCP gateway — the protocol engines cannot
// tell the difference.
type Session struct {
	cfg Config
	// views are the parties' binned features, passive parties first and
	// B's last; labels belong to the last view.
	views  []gbdt.BinView
	labels []float64
	stats  *Stats
	shaper *mq.Shaper
	broker *mq.Broker
	dec    he.Decryptor
	rec    *trace.Recorder

	chaos   *fault.Config
	res     *ResilientConfig
	ckptDir string
	ckptFS  fsfault.FS
	resume  bool

	// wrapped collects the session's resilient transports for stats and
	// shutdown.
	wrapped []*ResilientTransport

	// crypto is the session's cipher-operation counter, populated by
	// Train: Party B's codec counts, plus the passive parties' homomorphic
	// operations once training ends.
	crypto *fixedpoint.Stats

	perTreeTime []time.Duration
}

// SessionOption customizes a session.
type SessionOption func(*Session)

// WithWAN routes all cross-party traffic through a shaped link
// (bandwidth in Mbps, plus a fixed per-message latency), reproducing the
// paper's 300 Mbps public network. Each message is charged the gateway's
// framing overhead on top of its payload, so the simulated byte counts
// match what the TCP deployment puts on the wire.
func WithWAN(bandwidthMbps float64, latency time.Duration) SessionOption {
	return func(s *Session) {
		s.shaper = mq.NewShaper(bandwidthMbps, latency)
		s.shaper.SetPerMessageOverhead(mq.FrameOverhead)
	}
}

// WithDecryptor injects a pre-generated key pair, so benchmarks do not
// pay key generation per run.
func WithDecryptor(dec he.Decryptor) SessionOption {
	return func(s *Session) { s.dec = dec }
}

// WithTrace records per-phase Gantt spans into the recorder — the
// analysis instrument behind the paper's Figures 4 and 5.
func WithTrace(r *trace.Recorder) SessionOption {
	return func(s *Session) { s.rec = r }
}

// WithChaos injects seeded faults (drops, delays, duplicates, reorders,
// and at most one hard disconnect per link) into every cross-party link,
// and wraps each link in the resilient layer so training still converges
// to the fault-free model. The hard disconnect is applied to the passive
// side of each link; its redial path re-attaches to the same topics with
// the disconnect removed. Per-link fault schedules derive distinct seeds
// from cfg.Seed, so a session's chaos is reproducible end to end.
func WithChaos(cfg fault.Config) SessionOption {
	return func(s *Session) { c := cfg; s.chaos = &c }
}

// WithResilience wraps every cross-party link in the retry/heartbeat
// layer with the given tuning, independent of fault injection.
func WithResilience(cfg ResilientConfig) SessionOption {
	return func(s *Session) { c := cfg; s.res = &c }
}

// WithCheckpoints snapshots every party's training state under dir after
// each completed tree (dir/active for Party B, dir/passive<i> per passive
// party).
func WithCheckpoints(dir string) SessionOption {
	return func(s *Session) { s.ckptDir = dir }
}

// WithCheckpointFS routes every checkpoint store's I/O through the given
// filesystem — the storage counterpart of WithChaos, used to inject disk
// faults into the snapshot path and assert that recovery still converges.
func WithCheckpointFS(fsys fsfault.FS) SessionOption {
	return func(s *Session) { s.ckptFS = fsys }
}

// WithResume resumes training from the newest mutually-consistent
// checkpoint under the WithCheckpoints directory; a no-op when no valid
// checkpoint exists.
func WithResume() SessionOption {
	return func(s *Session) { s.resume = true }
}

// NewSession validates the per-party datasets (passive parties first, the
// labeled Party B last), bins each one at cfg.MaxBins and prepares the
// session NewViewSession would over those views.
func NewSession(parts []*dataset.Dataset, cfg Config, opts ...SessionOption) (*Session, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(parts) < 2 {
		return nil, fmt.Errorf("core: need at least two parties, got %d", len(parts))
	}
	rows := parts[0].Rows()
	for i, p := range parts {
		if p.Rows() != rows {
			return nil, fmt.Errorf("core: party %d has %d rows, want %d (align instances with PSI first)", i, p.Rows(), rows)
		}
		if i < len(parts)-1 && p.Labels != nil {
			return nil, fmt.Errorf("core: passive party %d must not hold labels", i)
		}
	}
	labels := parts[len(parts)-1].Labels
	if labels == nil {
		return nil, fmt.Errorf("core: the last party (Party B) must hold the labels")
	}
	views := make([]gbdt.BinView, len(parts))
	for i, p := range parts {
		v, err := binDataset(p, cfg)
		if err != nil {
			return nil, err
		}
		views[i] = v
	}
	return NewViewSession(views, labels, cfg, opts...)
}

// binDataset bins a party's dataset into the in-memory view its engine
// sweeps.
func binDataset(data *dataset.Dataset, cfg Config) (gbdt.BinView, error) {
	mapper, err := gbdt.NewBinMapper(data, cfg.MaxBins)
	if err != nil {
		return nil, err
	}
	return gbdt.NewBinnedMatrix(data, mapper), nil
}

// NewViewSession prepares a session over binned views: the in-memory
// matrices NewSession builds, or the out-of-core shard stores, where each
// party's features live on disk and no Dataset is ever materialized.
// Views are ordered passive parties first; labels belong to the last
// view (Party B).
func NewViewSession(views []gbdt.BinView, labels []float64, cfg Config, opts ...SessionOption) (*Session, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	if len(views) < 2 {
		return nil, fmt.Errorf("core: need at least two parties, got %d", len(views))
	}
	rows := views[0].Rows()
	for i, v := range views {
		if v.Rows() != rows {
			return nil, fmt.Errorf("core: party %d has %d rows, want %d (align instances with PSI first)", i, v.Rows(), rows)
		}
	}
	if len(labels) != rows {
		return nil, fmt.Errorf("core: %d labels for %d rows", len(labels), rows)
	}
	s := &Session{cfg: cfg, views: views, labels: labels, stats: &Stats{}}
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Stats returns the session's phase and protocol counters.
func (s *Session) Stats() *Stats { return s.stats }

// Crypto returns the session's cipher-operation counters, available after
// Train: Party B's encryptions and decryptions (the passive parties do
// neither), and the homomorphic additions, scalar multiplications and
// exponent scalings of every party — the passive parties' histogram
// accumulation, finalization and packing included.
func (s *Session) Crypto() *fixedpoint.Stats { return s.crypto }

// Shaper returns the WAN shaper, if any, for byte accounting.
func (s *Session) Shaper() *mq.Shaper { return s.shaper }

// Broker returns the broker for byte accounting after Train.
func (s *Session) Broker() *mq.Broker { return s.broker }

// PerTreeTimes returns the wall time of each completed boosting round.
func (s *Session) PerTreeTimes() []time.Duration { return s.perTreeTime }

// LinkStats returns the retransmit/redial/heartbeat counters of every
// resilient transport the session created (two per passive party: B side
// then passive side), or nil when the resilient layer was not enabled.
func (s *Session) LinkStats() []ResilientStats {
	out := make([]ResilientStats, len(s.wrapped))
	for i, r := range s.wrapped {
		out[i] = r.Stats()
	}
	return out
}

// Train runs the full federated training and returns the glued model.
func (s *Session) Train() (*FederatedModel, error) {
	if s.dec == nil {
		dec, err := newDecryptor(s.cfg)
		if err != nil {
			return nil, err
		}
		s.dec = dec
	}

	var brokerOpts []mq.Option
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("core: drawing broker secret: %w", err)
	}
	brokerOpts = append(brokerOpts, mq.WithAuth(secret))
	if s.shaper != nil {
		brokerOpts = append(brokerOpts, mq.WithShaper(s.shaper))
	}
	s.broker = mq.NewBroker(brokerOpts...)
	defer s.broker.Close()
	defer func() {
		for _, r := range s.wrapped {
			r.Close()
		}
	}()

	// Chaos implies the resilient layer (injected faults must be healed);
	// an explicit WithResilience enables it on a clean link too.
	useResilient := s.chaos != nil || s.res != nil
	rcfg := DefaultResilientConfig()
	if s.res != nil {
		rcfg = *s.res
		rcfg.normalize()
	}

	numPassive := len(s.views) - 1
	var stores struct {
		active  *checkpoint.Store
		passive []*checkpoint.Store
	}
	if s.ckptDir != "" {
		st, err := checkpoint.OpenFS(filepath.Join(s.ckptDir, "active"), s.ckptFS)
		if err != nil {
			return nil, err
		}
		stores.active = st
		stores.passive = make([]*checkpoint.Store, numPassive)
		for i := 0; i < numPassive; i++ {
			if stores.passive[i], err = checkpoint.OpenFS(filepath.Join(s.ckptDir, fmt.Sprintf("passive%d", i)), s.ckptFS); err != nil {
				return nil, err
			}
		}
	}

	bLinks := make([]*link, numPassive)
	type result struct {
		idx   int
		pm    *PartyModel
		err   error
		party *passiveParty
	}
	results := make(chan result, numPassive)

	for i := 0; i < numPassive; i++ {
		idx := i
		b2a := fmt.Sprintf("b2a%d", idx)
		a2b := fmt.Sprintf("a%d2b", idx)
		newEndpoint := func(sendTopic, recvTopic string) (Transport, error) {
			prod, err := s.broker.Producer(sendTopic, mq.Token(secret, sendTopic))
			if err != nil {
				return nil, err
			}
			cons, err := s.broker.Consumer(recvTopic, mq.Token(secret, recvTopic))
			if err != nil {
				return nil, err
			}
			return consumerEndpoint{send: prod.Send, sendCtx: prod.SendContext, recv: cons.Receive, detach: cons.Close}, nil
		}
		bEnd, err := newEndpoint(b2a, a2b)
		if err != nil {
			return nil, err
		}
		aEnd, err := newEndpoint(a2b, b2a)
		if err != nil {
			return nil, err
		}
		if useResilient {
			// Fault schedules and retry jitter get distinct per-link
			// seeds; the hard disconnect (if any) hits the passive side,
			// whose redial re-attaches to the same topics without it.
			aDial := func() (Transport, error) {
				end, err := newEndpoint(a2b, b2a)
				if err != nil {
					return nil, err
				}
				if s.chaos != nil {
					cfg := s.chaos.WithoutCut()
					cfg.Seed = s.chaos.Seed + int64(4*idx+3)
					return fault.Wrap(end, cfg), nil
				}
				return end, nil
			}
			if s.chaos != nil {
				bCfg := s.chaos.WithoutCut()
				bCfg.Seed = s.chaos.Seed + int64(4*idx+1)
				bEnd = fault.Wrap(bEnd, bCfg)
				aCfg := *s.chaos
				aCfg.Seed = s.chaos.Seed + int64(4*idx+2)
				aEnd = fault.Wrap(aEnd, aCfg)
			}
			rb := rcfg
			rb.Seed = rcfg.Seed + int64(4*idx+1)
			bRes, err := NewResilientTransport(bEnd, nil, rb)
			if err != nil {
				return nil, err
			}
			ra := rcfg
			ra.Seed = rcfg.Seed + int64(4*idx+2)
			aRes, err := NewResilientTransport(aEnd, aDial, ra)
			if err != nil {
				bRes.Close()
				return nil, err
			}
			s.wrapped = append(s.wrapped, bRes, aRes)
			bEnd, aEnd = bRes, aRes
		}
		bLinks[i] = NewLink(bEnd)
		party := newPassivePartyView(i, s.views[i], s.cfg, NewLink(aEnd), s.stats)
		party.rec = s.rec
		if stores.passive != nil {
			if err := party.enableCheckpoints(stores.passive[i], s.resume); err != nil {
				return nil, err
			}
		}
		go func(i int) {
			pm, err := party.run()
			results <- result{idx: i, pm: pm, err: err, party: party}
		}(i)
	}

	active, err := newActivePartyView(s.views[numPassive], s.labels, s.cfg, s.dec, bLinks, s.stats)
	if err != nil {
		return nil, err
	}
	active.rec = s.rec
	s.crypto = active.codec.Stats()
	if stores.active != nil {
		active.enableCheckpoints(stores.active, s.resume)
	}
	bModel, err := active.train()
	if err != nil {
		return nil, err
	}
	s.perTreeTime = active.perTreeTime

	numParties := len(s.views)
	models := make([]*PartyModel, numParties)
	models[numParties-1] = bModel
	for i := 0; i < numPassive; i++ {
		r := <-results
		if r.err != nil {
			return nil, r.err
		}
		models[r.idx] = r.pm
		// The party has returned, so its codec is quiescent.
		ops := r.party.codec.Stats()
		s.crypto.AddHAdds(ops.HAdds())
		s.crypto.AddSMuls(ops.SMuls())
		s.crypto.AddScalings(ops.Scalings())
	}
	// Pad passive fragments so every party indexes the full class-tree
	// count (Trees rounds × k outputs).
	totalTrees := s.cfg.Trees * s.cfg.outputs()
	for _, pm := range models {
		for len(pm.Trees) < totalTrees {
			pm.Trees = append(pm.Trees, NewFedTree(rootID))
		}
	}

	// Per-party split counts come from the fragments rather than the run's
	// counters, so a resumed session (which replays only the remaining
	// rounds) still reports the totals of the whole model.
	splits := make([]int, numParties)
	for i := 0; i < numParties; i++ {
		n := 0
		for _, t := range models[i].Trees {
			for _, nd := range t.Nodes {
				if nd.Owner == i { // each fragment records its own splits
					n++
				}
			}
		}
		splits[i] = n
	}

	fm := &FederatedModel{
		Parties:       models,
		LearningRate:  s.cfg.LearningRate,
		BaseScore:     0,
		SplitsByParty: splits,
	}
	if k := s.cfg.outputs(); k > 1 {
		fm.NumOutputs = k
	}
	if name := s.cfg.Objective.Name(); name != "binary" {
		fm.Objective = name
	}
	return fm, nil
}

// RunPassiveParty runs a single passive party over an arbitrary transport
// (for example the mq TCP gateway), blocking until Party B shuts the
// session down. It returns the party's private model fragment.
func RunPassiveParty(index int, data *dataset.Dataset, cfg Config, tr Transport, opts ...RunOption) (*PartyModel, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	view, err := binDataset(data, cfg)
	if err != nil {
		return nil, err
	}
	return RunPassivePartyView(index, view, cfg, tr, opts...)
}

// RunPassivePartyView runs a passive party over a binned view — the
// out-of-core variant of RunPassiveParty.
func RunPassivePartyView(index int, view gbdt.BinView, cfg Config, tr Transport, opts ...RunOption) (*PartyModel, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	p := newPassivePartyView(index, view, cfg, NewLink(tr), &Stats{})
	if o.ckpt != nil {
		if err := p.enableCheckpoints(o.ckpt, o.resume); err != nil {
			return nil, err
		}
	}
	return p.run()
}

// RunActiveParty runs Party B over arbitrary transports, one per passive
// party, and returns B's model fragment plus the run statistics. In this
// deployment each party keeps its own fragment; assemble a FederatedModel
// only if the fragments are intentionally co-located.
func RunActiveParty(data *dataset.Dataset, cfg Config, trs []Transport, opts ...RunOption) (*PartyModel, *Stats, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	view, err := binDataset(data, cfg)
	if err != nil {
		return nil, nil, err
	}
	return RunActivePartyView(view, data.Labels, cfg, trs, opts...)
}

// RunActivePartyView runs Party B over a binned view and its labels — the
// out-of-core variant of RunActiveParty.
func RunActivePartyView(view gbdt.BinView, labels []float64, cfg Config, trs []Transport, opts ...RunOption) (*PartyModel, *Stats, error) {
	if err := cfg.normalize(); err != nil {
		return nil, nil, err
	}
	var o runOpts
	for _, opt := range opts {
		opt(&o)
	}
	dec, err := newDecryptor(cfg)
	if err != nil {
		return nil, nil, err
	}
	links := make([]*link, len(trs))
	for i, tr := range trs {
		links[i] = NewLink(tr)
	}
	stats := &Stats{}
	b, err := newActivePartyView(view, labels, cfg, dec, links, stats)
	if err != nil {
		return nil, nil, err
	}
	if o.ckpt != nil {
		b.enableCheckpoints(o.ckpt, o.resume)
	}
	pm, err := b.train()
	if err != nil {
		return nil, nil, err
	}
	return pm, stats, nil
}

// newDecryptor builds the configured cryptosystem.
func newDecryptor(cfg Config) (he.Decryptor, error) {
	switch cfg.Scheme {
	case SchemePaillier:
		return he.NewPaillier(cfg.KeyBits, 0)
	case SchemeMock:
		return he.NewMock(max(cfg.KeyBits, 256)), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", cfg.Scheme)
	}
}
