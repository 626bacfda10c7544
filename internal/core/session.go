package core

import (
	"crypto/rand"
	"fmt"
	"path/filepath"
	"strings"
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

// Session runs federated training in-process: it wires one active and
// one or more passive parties through a message broker and runs each
// party's role entry (RunActiveParty, RunPassiveParty) over its broker
// endpoints. The parties exchange exactly the same wire messages whether
// the broker is local, WAN-shaped, or fronted by the TCP gateway — the
// protocol engines cannot tell the difference.
type Session struct {
	settings
	cfg Config
	// views are the parties' binned features, passive parties first and
	// B's last; labels belong to the last view.
	views  []gbdt.BinView
	labels []float64
	stats  *Stats
	broker *mq.Broker

	// wrapped collects the session's resilient transports for stats and
	// shutdown.
	wrapped []*ResilientTransport

	// crypto and perTreeTime are recorded by the role entries Train runs:
	// every party's cipher operations, and Party B's wall time per round.
	crypto      *fixedpoint.Stats
	perTreeTime []time.Duration
}

// settings are what the options set. A Session applies the transport
// settings to the links it builds and hands the rest to the role entries
// it runs; a role entry refuses the transport settings, since its caller
// owns the transport.
type settings struct {
	shaper *mq.Shaper
	chaos  *fault.Config

	dec     he.Decryptor
	rec     *trace.Recorder
	ckptDir string
	ckptFS  fsfault.FS
	resume  bool

	// in is the session a role entry runs within (see within).
	in *Session
}

// SessionOption customizes a session or a role entry.
type SessionOption func(*settings)

// WithWAN routes all cross-party traffic through a shaped link
// (bandwidth in Mbps, plus a fixed per-message latency), reproducing the
// paper's 300 Mbps public network. Each message is charged the gateway's
// framing overhead on top of its payload, so the simulated byte counts
// match what the TCP deployment puts on the wire.
func WithWAN(bandwidthMbps float64, latency time.Duration) SessionOption {
	return func(s *settings) {
		s.shaper = mq.NewShaper(bandwidthMbps, latency)
		s.shaper.SetPerMessageOverhead(mq.FrameOverhead)
	}
}

// WithDecryptor injects a pre-generated key pair, so benchmarks do not
// pay key generation per run.
func WithDecryptor(dec he.Decryptor) SessionOption {
	return func(s *settings) { s.dec = dec }
}

// WithTrace records per-phase Gantt spans into the recorder — the
// analysis instrument behind the paper's Figures 4 and 5.
func WithTrace(r *trace.Recorder) SessionOption {
	return func(s *settings) { s.rec = r }
}

// WithChaos injects seeded faults (drops, delays, duplicates, reorders,
// and at most one hard disconnect per link) into every cross-party link,
// and wraps each link in the resilient layer so training still converges
// to the fault-free model. The hard disconnect is applied to the passive
// side of each link; its redial path re-attaches to the same topics with
// the disconnect removed. Per-link fault schedules derive distinct seeds
// from cfg.Seed, so a session's chaos is reproducible end to end.
func WithChaos(cfg fault.Config) SessionOption {
	return func(s *settings) { c := cfg; s.chaos = &c }
}

// WithCheckpoints snapshots every party's training state under dir after
// each completed tree: each role keeps its own store, dir/active for Party
// B and dir/passive<i> for passive party i, in a Session and deployed
// alike.
func WithCheckpoints(dir string) SessionOption {
	return func(s *settings) { s.ckptDir = dir }
}

// WithCheckpointFS routes every checkpoint store's I/O through the given
// filesystem — the storage counterpart of WithChaos, used to inject disk
// faults into the snapshot path and assert that recovery still converges.
func WithCheckpointFS(fsys fsfault.FS) SessionOption {
	return func(s *settings) { s.ckptFS = fsys }
}

// WithResume resumes training from the newest mutually-consistent
// checkpoint under the WithCheckpoints directory; a no-op when no valid
// checkpoint exists.
func WithResume() SessionOption {
	return func(s *settings) { s.resume = true }
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
	for i, p := range parts {
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
		o(&s.settings)
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

// Train runs the full federated training and returns the glued model: it
// builds every party's broker endpoints, starts RunPassiveParty per
// passive party and runs RunActiveParty over them.
func (s *Session) Train() (*FederatedModel, error) {
	secret := make([]byte, 32)
	if _, err := rand.Read(secret); err != nil {
		return nil, fmt.Errorf("core: drawing broker secret: %w", err)
	}
	brokerOpts := []mq.Option{mq.WithAuth(secret)}
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
	s.crypto = &fixedpoint.Stats{}

	numPassive, numParties := len(s.views)-1, len(s.views)
	models := make([]*PartyModel, numParties)
	bEnds := make([]Transport, numPassive)
	errs := make(chan error, numPassive)
	for i := 0; i < numPassive; i++ {
		bEnd, aEnd, err := s.link(i, secret)
		if err != nil {
			return nil, err
		}
		bEnds[i] = bEnd
		go func() {
			var err error
			models[i], _, err = RunPassiveParty(i, s.views[i], s.cfg, aEnd, within(s))
			errs <- err
		}()
	}
	var err error
	models[numPassive], _, err = RunActiveParty(s.views[numPassive], s.labels, s.cfg, bEnds, within(s), WithDecryptor(s.dec))
	if err != nil {
		return nil, err
	}
	for i := 0; i < numPassive; i++ {
		if err := <-errs; err != nil {
			return nil, err
		}
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

// link builds passive party i's link on the session broker and returns
// Party B's end and the passive party's. Under WithChaos both ends are
// wrapped in the resilient layer, chaos injected underneath.
func (s *Session) link(i int, secret []byte) (bEnd, aEnd Transport, err error) {
	b2a, a2b := fmt.Sprintf("b2a%d", i), fmt.Sprintf("a%d2b", i)
	if bEnd, err = s.broker.Endpoint(b2a, a2b, secret); err != nil {
		return nil, nil, err
	}
	if aEnd, err = s.broker.Endpoint(a2b, b2a, secret); err != nil {
		return nil, nil, err
	}
	if s.chaos == nil {
		return bEnd, aEnd, nil
	}
	// Fault schedules and retry jitter get distinct per-link seeds; the
	// hard disconnect (if any) hits the passive side, whose redial
	// re-attaches to the same topics without it.
	chaos := func(cfg fault.Config, n int) fault.Config { cfg.Seed += int64(4*i + n); return cfg }
	retry := func(n int) ResilientConfig { return ResilientConfig{Seed: int64(4*i + n)} }
	aDial := func() (Transport, error) {
		end, err := s.broker.Endpoint(a2b, b2a, secret)
		if err != nil {
			return nil, err
		}
		return fault.Wrap(end, chaos(s.chaos.WithoutCut(), 3)), nil
	}
	bEnd = fault.Wrap(bEnd, chaos(s.chaos.WithoutCut(), 1))
	aEnd = fault.Wrap(aEnd, chaos(*s.chaos, 2))
	bRes, err := NewResilientTransport(bEnd, nil, retry(1))
	if err != nil {
		return nil, nil, err
	}
	aRes, err := NewResilientTransport(aEnd, aDial, retry(2))
	if err != nil {
		bRes.Close()
		return nil, nil, err
	}
	s.wrapped = append(s.wrapped, bRes, aRes)
	return bRes, aRes, nil
}

// within makes a role entry part of session s: the entry takes s's trace,
// checkpoint and resume settings, counts into s's Stats and cipher
// counters and, as Party B, records its per-round times in s.
func within(s *Session) SessionOption {
	return func(o *settings) {
		o.rec, o.ckptDir, o.ckptFS, o.resume = s.rec, s.ckptDir, s.ckptFS, s.resume
		o.in = s
	}
}

// roleSetup applies a role entry's options and normalizes its config. It
// refuses, by name, each option the role cannot apply: WithWAN and
// WithChaos act on the transport, which the entry's caller owns, and a
// passive party holds no key for WithDecryptor.
func roleSetup(entry string, passive bool, cfg *Config, opts []SessionOption) (settings, *Stats, error) {
	var o settings
	for _, opt := range opts {
		opt(&o)
	}
	var refused []string
	for _, c := range []struct {
		name string
		set  bool
	}{
		{"WithWAN", o.shaper != nil},
		{"WithChaos", o.chaos != nil},
		{"WithDecryptor", passive && o.dec != nil},
	} {
		if c.set {
			refused = append(refused, c.name)
		}
	}
	if len(refused) > 0 {
		return o, nil, fmt.Errorf("core: %s cannot apply %s", entry, strings.Join(refused, ", "))
	}
	stats := &Stats{}
	if o.in != nil {
		stats = o.in.stats
	}
	return o, stats, cfg.normalize()
}

// checkpoints opens the role's checkpoint store, sub under the
// WithCheckpoints directory, through WithCheckpointFS when given; it is
// nil without WithCheckpoints.
func (o settings) checkpoints(sub string) (*checkpoint.Store, error) {
	if o.ckptDir == "" {
		return nil, nil
	}
	return checkpoint.OpenFS(filepath.Join(o.ckptDir, sub), o.ckptFS)
}

// RunPassiveParty runs a single passive party over a binned view and a
// transport (a broker endpoint, possibly wrapped in the fault or resilient
// layer), blocking until Party B shuts the session down. It returns the
// party's model fragment and its run statistics. It takes WithTrace,
// WithCheckpoints (its store is passive<index> there), WithCheckpointFS
// and WithResume; a checkpoint store it cannot open or restore reaches B
// as MsgAbort before it returns.
func RunPassiveParty(index int, view gbdt.BinView, cfg Config, tr Transport, opts ...SessionOption) (*PartyModel, *Stats, error) {
	o, stats, err := roleSetup("RunPassiveParty", true, &cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	p := newPassivePartyView(index, view, cfg, NewLink(tr), stats)
	p.rec = o.rec
	st, err := o.checkpoints(fmt.Sprintf("passive%d", index))
	if err != nil {
		err = fmt.Errorf("core: party %d checkpoints: %w", index, err)
	} else {
		err = p.enableCheckpoints(st, o.resume)
	}
	if err != nil {
		return nil, nil, p.reject(err)
	}
	pm, err := p.run()
	if err != nil {
		return nil, nil, err
	}
	if o.in != nil {
		o.in.crypto.Add(p.codec.Stats()) // the party has returned: its codec is quiescent
	}
	return pm, stats, nil
}

// RunActiveParty runs Party B over a binned view and its labels, one
// transport per passive party, and returns B's model fragment plus the run
// statistics. Each party keeps its own fragment. It takes WithDecryptor
// (else it generates the configured key pair), WithTrace,
// WithCheckpoints (its store is active there), WithCheckpointFS and
// WithResume. Whatever ends B's session — labels the objective refuses,
// a checkpoint store that cannot open, one passive party's abort —
// reaches every passive party as MsgAbort before it returns.
func RunActiveParty(view gbdt.BinView, labels []float64, cfg Config, trs []Transport, opts ...SessionOption) (*PartyModel, *Stats, error) {
	o, stats, err := roleSetup("RunActiveParty", false, &cfg, opts)
	if err != nil {
		return nil, nil, err
	}
	dec := o.dec
	if dec == nil {
		if dec, err = newDecryptor(cfg); err != nil {
			return nil, nil, err
		}
	}
	links := make([]*link, len(trs))
	for i, tr := range trs {
		links[i] = NewLink(tr)
	}
	b, err := newActivePartyView(view, labels, cfg, dec, links, stats)
	if err == nil {
		b.rec, b.resume = o.rec, o.resume
		if b.ckpt, err = o.checkpoints("active"); err != nil {
			err = fmt.Errorf("core: party B checkpoints: %w", err)
		}
	}
	if err != nil {
		for _, l := range links {
			_ = l.send(MsgAbort{Party: len(links), Reason: err.Error()})
		}
		return nil, nil, err
	}
	pm, err := b.train()
	if err != nil {
		b.abort(err) // no passive party waits on a session B has left
		return nil, nil, err
	}
	if o.in != nil {
		o.in.crypto.Add(b.codec.Stats())
		o.in.perTreeTime = b.perTreeTime
	}
	return pm, stats, nil
}

// newDecryptor builds the configured cryptosystem.
func newDecryptor(cfg Config) (he.Decryptor, error) {
	switch cfg.Scheme {
	case SchemePaillier:
		return he.NewPaillier(cfg.KeyBits)
	case SchemeMock:
		return he.NewMock(max(cfg.KeyBits, 256)), nil
	default:
		return nil, fmt.Errorf("core: unknown scheme %q", cfg.Scheme)
	}
}
