package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/mq"
	"vf2boost/internal/trace"
)

// ServerConfig wires a Party B scoring server.
type ServerConfig struct {
	// Data is B's feature shard of the aligned scoring universe.
	Data *dataset.Dataset
	// Registry resolves model versions; Current() is pinned per batch.
	Registry *Registry
	// Workers holds one open transport per passive party, in party-index
	// order, each with a PassiveWorker serving the other end.
	Workers []core.Transport
	// Dialers, when set, lets the server re-open a worker session after a
	// transport loss or a breaker probe: Dialers[i] re-dials party i.
	// Without one, a lost link stays lost for the process lifetime.
	Dialers []func() (core.Transport, error)
	// Batch bounds the micro-batcher.
	Batch BatcherConfig
	// Deadline is the scoring budget applied to requests that carry none
	// (default 2s). HTTP clients override it per request with the
	// X-Score-Deadline header, clamped to 30 s (maxDeadline).
	Deadline time.Duration
	// Policy picks what happens when a passive party cannot join a round:
	// FailClosed (default) refuses, ServePartial serves partial margins.
	Policy DegradedPolicy
	// MaxInflight is the pipeline depth: how many federated rounds may be
	// in flight on the session links at once (default 4). A round beyond
	// it waits for one to finish, within its own deadline; nothing is
	// shed here — load shedding happens at the bounded batcher queue
	// (Batch.MaxQueue).
	MaxInflight int
	// Breaker tunes the per-worker-link circuit breakers.
	Breaker BreakerConfig
	// Session is an opaque session label sent in the open handshake.
	Session string
	// Broker, when the broker is co-resident (in-process deployments),
	// lets /metricsz surface per-topic queue depths. Optional.
	Broker *mq.Broker
	// Trace, when set, records per-round spans on lanes "B:ScoreBatch",
	// "B:ScoreWAN" and "B:ScoreRoute". Optional.
	Trace *trace.Recorder
}

func (c *ServerConfig) defaults() {
	c.Batch.defaults()
	if c.Deadline <= 0 {
		c.Deadline = 2 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 4
	}
}

const (
	// maxDeadline caps client-requested scoring budgets.
	maxDeadline = 30 * time.Second
	// retryBudget caps in-round session re-open attempts: a token bucket
	// of this many tokens refilling one per second, so a flapping link
	// cannot turn every round into a redial storm.
	retryBudget = 8
)

// workerAnswer is what a round waiting on a worker link is handed: the
// worker's response to its request id, or the reason the session died
// under it.
type workerAnswer struct {
	resp core.MsgScoreResponse
	err  error
}

// workerSession is one incarnation of a worker link: the transport, its
// typed link, and the rounds waiting on it. A lost session is never
// revived — reopen installs a successor with the next epoch — so a frame
// the old pump still holds can only reach the old, emptied waiter table.
type workerSession struct {
	epoch  uint64
	tr     core.Transport
	link   *core.Link
	ack    chan core.MsgScoreOpenAck // the handshake answer
	closed chan struct{}             // closed by the pump on the close ack
	done   chan struct{}             // closed by sever, after err is set

	// reach holds the model versions whose reach links the session has
	// carried; guarded by the server's send lock.
	reach map[uint64]bool

	// Guarded by workerState.mu.
	waiters map[uint64]chan workerAnswer // request id → the round waiting for it
	err     error                        // why the session died; nil while it lives
}

// workerState is the server's view of one passive party: the current
// session (with its demultiplexing pump), liveness, and the circuit
// breaker. sess is only replaced under the server's send lock; alive and
// the breaker are read concurrently by /readyz.
type workerState struct {
	party   int
	breaker *Breaker
	alive   atomic.Bool // handshake done and link not lost

	mu   sync.Mutex
	sess *workerSession
	// reopenFailed is the epoch that was current when a re-open last
	// failed: rounds that lost that session (or an older one) share the
	// verdict instead of each spending a dial on it.
	reopenFailed uint64
}

// current returns the installed session.
func (ws *workerState) current() *workerSession {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.sess
}

// attach installs a fresh transport as the next session epoch. Caller
// holds the send lock (or is the constructor).
func (ws *workerState) attach(tr core.Transport) *workerSession {
	ss := &workerSession{
		tr:      tr,
		link:    core.NewLink(tr),
		ack:     make(chan core.MsgScoreOpenAck, 1),
		closed:  make(chan struct{}),
		done:    make(chan struct{}),
		reach:   make(map[uint64]bool),
		waiters: make(map[uint64]chan workerAnswer),
	}
	ws.mu.Lock()
	if ws.sess != nil {
		ss.epoch = ws.sess.epoch
	}
	ss.epoch++
	ws.sess = ss
	ws.mu.Unlock()
	return ss
}

// sever kills a session: every round waiting on it is failed with cause,
// and the transport is closed, which releases the pump and unblocks the
// sidecar into its redial loop. The first caller wins and is told so;
// the session stays dead.
func (ws *workerState) sever(ss *workerSession, cause error) bool {
	ws.mu.Lock()
	if ss.err != nil {
		ws.mu.Unlock()
		return false
	}
	ss.err = cause
	if ws.sess == ss {
		ws.alive.Store(false)
	}
	for id, ch := range ss.waiters {
		ch <- workerAnswer{err: cause} // buffered: one delivery per registration
		delete(ss.waiters, id)
	}
	close(ss.done)
	ws.mu.Unlock()
	if c, ok := ss.tr.(io.Closer); ok {
		c.Close()
	}
	return true
}

// lose is sever for a link that failed on its own (as opposed to one the
// server is replacing or shutting down): the loss is one breaker failure,
// however many rounds were in flight on it.
func (ws *workerState) lose(ss *workerSession, cause error) {
	if ws.sever(ss, cause) {
		ws.breaker.Failure(false)
	}
}

// register makes w the waiter for its request id on its session; it
// fails if the session died first.
func (ws *workerState) register(w *roundWaiter) error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	if w.sess.err != nil {
		return w.sess.err
	}
	w.sess.waiters[w.id] = w.ch
	return nil
}

// forget withdraws w: an answer that still lands is stale, and one that
// landed already is discarded so the channel is free for a re-send.
func (ws *workerState) forget(w *roundWaiter) {
	ws.mu.Lock()
	delete(w.sess.waiters, w.id)
	ws.mu.Unlock()
	select {
	case <-w.ch:
	default:
	}
}

// deliver hands a response to the round waiting for its id and reports
// whether there was one.
func (ws *workerState) deliver(ss *workerSession, resp core.MsgScoreResponse) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	ch, ok := ss.waiters[resp.Round]
	if ok {
		delete(ss.waiters, resp.Round)
		ch <- workerAnswer{resp: resp}
	}
	return ok
}

// pumpLink is a session's receive loop and the demultiplexer of its
// pipelined rounds: a MsgScoreResponse goes to the waiter of its Round,
// and one nobody waits for any more (the round ran out of budget, or the
// frame is a leftover of an earlier session on the same topics) is dropped
// and counted. The open ack goes to ss.ack; the close ack ends the pump.
// A receive error or any other frame severs the session, failing every
// round in flight on it.
func (s *Server) pumpLink(ws *workerState, ss *workerSession) {
	opened := false
	for {
		m, err := ss.link.Recv()
		if err != nil {
			ws.lose(ss, fmt.Errorf("serve: worker %d link lost: %w", ws.party, err))
			return
		}
		switch m := m.(type) {
		case core.MsgScoreResponse:
			if !ws.deliver(ss, m) {
				s.met.ObserveStale()
			}
			continue
		case core.MsgScoreOpenAck:
			if !opened {
				opened = true
				ss.ack <- m
				continue
			}
		case core.MsgScoreCloseAck:
			if s.closing.Load() {
				close(ss.closed)
				return // the worker has left the session
			}
		}
		ws.lose(ss, fmt.Errorf("serve: expected MsgScoreResponse from worker %d, got %T", ws.party, m))
		return
	}
}

// workerError is a structured per-round refusal from a healthy worker
// (unknown model version, out-of-range row) — the link is fine, the
// round is not.
type workerError struct {
	party int
	round uint64
	msg   string
}

func (e *workerError) Error() string {
	return fmt.Sprintf("serve: worker %d failed round %d: %s", e.party, e.round, e.msg)
}

// tokenBucket is the retry budget: take() spends one token, tokens
// refill at one per second up to the cap.
type tokenBucket struct {
	mu     sync.Mutex
	tokens float64
	cap    float64
	last   time.Time
}

func newTokenBucket(cap int) *tokenBucket {
	return &tokenBucket{tokens: float64(cap), cap: float64(cap), last: time.Now()}
}

func (tb *tokenBucket) take() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := time.Now()
	tb.tokens = math.Min(tb.cap, tb.tokens+now.Sub(tb.last).Seconds())
	tb.last = now
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}

// Server drives online federated scoring from Party B: it pins a model
// version per micro-batch, issues one scoring round over every worker
// link, routes instances locally, and serves the result over HTTP. Rounds
// are pipelined: a round holds the session only while its request frames
// are written (the send lock), then waits for its answers — matched by
// round id, so up to MaxInflight rounds share a WAN round trip — and
// routes outside any lock. Every round runs under a deadline, admission
// is bounded, and each worker link sits behind a circuit breaker with
// optional degraded (partial-margin) serving when a party is unreachable.
type Server struct {
	cfg     ServerConfig
	workers []*workerState
	batcher *Batcher
	met     *Metrics
	retry   *tokenBucket

	inflight chan struct{} // the pipeline window: one slot per round in flight
	sendLock chan struct{} // capacity 1: held while a round's requests are written; ctx-aware mutex
	round    atomic.Uint64
	opened   atomic.Bool
	closing  atomic.Bool
}

// NewServer validates the wiring; Open performs the session handshake.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Data == nil {
		return nil, fmt.Errorf("serve: server needs Party B's feature shard")
	}
	if cfg.Registry == nil {
		return nil, fmt.Errorf("serve: server needs a model registry")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("serve: server needs at least one passive worker transport")
	}
	cfg.defaults()
	s := &Server{
		cfg:      cfg,
		met:      NewMetrics(),
		retry:    newTokenBucket(retryBudget),
		inflight: make(chan struct{}, cfg.MaxInflight),
		sendLock: make(chan struct{}, 1),
	}
	for i, tr := range cfg.Workers {
		ws := &workerState{party: i, breaker: NewBreaker(cfg.Breaker)}
		go s.pumpLink(ws, ws.attach(tr))
		s.workers = append(s.workers, ws)
	}
	// The batcher takes a batch only with a window slot held, so a batch
	// that finds the window full keeps growing instead of queueing.
	s.cfg.Batch.window, s.cfg.Batch.met = s.inflight, s.met
	s.batcher = NewBatcher(s.cfg.Batch, s.scoreHeld)
	return s, nil
}

// Metrics exposes the server's instrumentation.
func (s *Server) Metrics() *Metrics { return s.met }

// Breaker returns party i's circuit breaker (nil if out of range) —
// exported for tests and operational introspection.
func (s *Server) Breaker(i int) *Breaker {
	if i < 0 || i >= len(s.workers) {
		return nil
	}
	return s.workers[i].breaker
}

// Open performs the session handshake with every worker: protocol version
// agreement and the instance-alignment check (every party must hold a
// shard of the same universe). A handshake that fails closes the server:
// every worker whose link is still up is sent MsgScoreClose with the
// refusal as its reason, so no worker is left blocked in Run.
func (s *Server) Open() error {
	if err := s.handshake(); err != nil {
		if !s.closing.Swap(true) {
			s.batcher.Close()
			s.closeSessions(err.Error())
		}
		return err
	}
	s.opened.Store(true)
	return nil
}

// handshake sends the open to every worker and validates every answer.
func (s *Server) handshake() error {
	for i, ws := range s.workers {
		if err := ws.current().link.Send(core.MsgScoreOpen{Proto: core.ScoreProtoVersion, Session: s.cfg.Session}); err != nil {
			return fmt.Errorf("serve: opening session with worker %d: %w", i, err)
		}
	}
	for _, ws := range s.workers {
		if err := s.awaitOpenAck(context.Background(), ws, ws.current()); err != nil {
			return err
		}
	}
	return nil
}

// awaitOpenAck waits for a session's handshake answer, validates it and
// marks the worker alive.
func (s *Server) awaitOpenAck(ctx context.Context, ws *workerState, ss *workerSession) error {
	select {
	case ack := <-ss.ack:
		if err := s.checkOpenAck(ws.party, ack); err != nil {
			return err
		}
		ws.mu.Lock()
		defer ws.mu.Unlock()
		if ss.err != nil { // lost between the ack and here
			return fmt.Errorf("serve: worker %d open ack: %w", ws.party, ss.err)
		}
		ws.alive.Store(true)
		return nil
	case <-ss.done:
		return fmt.Errorf("serve: worker %d open ack: %w", ws.party, ss.err)
	case <-ctx.Done():
		return fmt.Errorf("serve: worker %d open ack: %w", ws.party, ctx.Err())
	}
}

// checkOpenAck validates one worker's session handshake answer.
func (s *Server) checkOpenAck(i int, ack core.MsgScoreOpenAck) error {
	if ack.Error != "" {
		return fmt.Errorf("serve: worker %d rejected session: %s", i, ack.Error)
	}
	if ack.Proto != core.ScoreProtoVersion {
		return fmt.Errorf("serve: worker %d speaks scoring protocol %d, this server %d", i, ack.Proto, core.ScoreProtoVersion)
	}
	if ack.Party != i {
		return fmt.Errorf("serve: transport %d is connected to party %d; order transports by party index", i, ack.Party)
	}
	if ack.Rows != s.cfg.Data.Rows() {
		return fmt.Errorf("serve: party %d shard has %d rows, B has %d — scoring universes misaligned", i, ack.Rows, s.cfg.Data.Rows())
	}
	return nil
}

// reopen re-dials a party and redoes the session handshake on a new
// session epoch, spending one retry-budget token. Called under the send
// lock.
func (s *Server) reopen(ctx context.Context, ws *workerState) error {
	i := ws.party
	var dial func() (core.Transport, error)
	if i < len(s.cfg.Dialers) {
		dial = s.cfg.Dialers[i]
	}
	if dial == nil {
		return fmt.Errorf("serve: no dialer configured for party %d", i)
	}
	if s.closing.Load() {
		return ErrClosed // a closing server re-opens nothing
	}
	if !s.retry.take() {
		return fmt.Errorf("serve: retry budget exhausted re-opening party %d", i)
	}
	s.met.ObserveRetry()
	tr, err := dial()
	if err != nil {
		return fmt.Errorf("serve: re-dialing party %d: %w", i, err)
	}
	if s.closing.Load() {
		if c, ok := tr.(io.Closer); ok {
			c.Close()
		}
		return ErrClosed
	}
	ws.sever(ws.current(), fmt.Errorf("serve: worker %d session replaced", i)) // release the old pump
	ss := ws.attach(tr)
	go s.pumpLink(ws, ss)
	if err := ss.link.SendContext(ctx, core.MsgScoreOpen{Proto: core.ScoreProtoVersion, Session: s.cfg.Session}); err != nil {
		ws.sever(ss, err)
		return fmt.Errorf("serve: re-opening session with party %d: %w", i, err)
	}
	if err := s.awaitOpenAck(ctx, ws, ss); err != nil {
		ws.sever(ss, err)
		return err
	}
	return nil
}

// liveSession returns worker ws's session for a round to send on,
// re-opening a dead one first. lost is the epoch the round already lost
// (0 for a round that has not sent yet): however many rounds lost the
// same session, the first to get here re-opens it, the rest find the
// successor — or, if that re-open failed, share its verdict. Called under
// the send lock.
func (s *Server) liveSession(ctx context.Context, ws *workerState, lost uint64) (*workerSession, error) {
	ws.mu.Lock()
	ss, failed := ws.sess, ws.reopenFailed
	ws.mu.Unlock()
	if ws.alive.Load() && ss.epoch > lost {
		return ss, nil
	}
	if lost != 0 && failed >= lost {
		return nil, fmt.Errorf("serve: worker %d link lost, re-open already failed", ws.party)
	}
	if err := s.reopen(ctx, ws); err != nil {
		ws.mu.Lock()
		ws.reopenFailed = ss.epoch
		ws.mu.Unlock()
		if lost == 0 {
			ws.breaker.Failure(false) // a round that lost the link has been counted by lose
		}
		return nil, err
	}
	return ws.current(), nil
}

// Score enqueues one row into the micro-batcher and blocks for its margin
// and the model version it was scored with.
func (s *Server) Score(ctx context.Context, row int32) (float64, uint64, error) {
	r, err := s.ScoreRow(ctx, row)
	return r.Margin, r.Version, err
}

// ScoreRow is Score with the full outcome (partial flag, missing-party
// list). A context without a deadline gets the server's default budget.
func (s *Server) ScoreRow(ctx context.Context, row int32) (RowResult, error) {
	if _, ok := ctx.Deadline(); !ok {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Deadline)
		defer cancel()
	}
	start := time.Now()
	r, err := s.batcher.ScoreRow(ctx, row)
	s.met.ObserveRequest(time.Since(start), err)
	s.observeOutcome(r.Missing, err)
	return r, err
}

// observeOutcome feeds the overload/degradation counters from one
// request's result.
func (s *Server) observeOutcome(missing []int, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.met.ObserveShed()
	case errors.Is(err, context.DeadlineExceeded):
		s.met.ObserveTimeout()
	case err == nil && len(missing) > 0:
		s.met.ObserveDegraded()
	}
}

// ScoreRows issues one federated scoring round for the given rows, pinned
// to the registry's current model version, with no budget: the round
// blocks as long as the links do. Batch prediction (`vf2boost predict`)
// scores a whole shard through it, one bounded round at a time;
// deadline-aware callers use ScoreBatch.
func (s *Server) ScoreRows(rows []int32) ([]float64, uint64, error) {
	res, err := s.ScoreBatch(context.Background(), rows)
	return res.Margins, res.Version, err
}

// roundWaiter is one round's claim on one worker link.
type roundWaiter struct {
	routes  *core.RouteTable  // the pinned version's table, whose reach links the link needs
	ch      chan workerAnswer // buffered: the pump never blocks on a waiter
	sess    *workerSession    // the session the request was last written to
	id      uint64            // the request id it was written under
	retried bool              // the round's one re-send on this link is spent
}

// lockSend takes the send lock within the round's budget.
func (s *Server) lockSend(ctx context.Context) error {
	select {
	case s.sendLock <- struct{}{}:
		return nil
	case <-ctx.Done():
		s.met.ObserveTimeout()
		return ctx.Err()
	}
}

func (s *Server) unlockSend() { <-s.sendLock }

// ScoreBatch issues one federated scoring round under the context's
// deadline. All rows in the round are scored against one pinned model
// version even if a hot-swap lands mid-round. A worker that cannot
// answer in budget fails the round (FailClosed) or drops out of it
// (ServePartial — the result lists it in Missing and margins omit every
// tree that needed it). A failed round's ErrPartyUnavailable wraps the
// first missing party's own failure (a lost link, a malformed answer),
// if it had one besides an open breaker. Up to MaxInflight rounds are in
// flight at once: the round waits for a window slot, writes its requests
// under the send lock, and collects its answers and routes with no lock
// held.
func (s *Server) ScoreBatch(ctx context.Context, rows []int32) (BatchResult, error) {
	if s.closing.Load() {
		return BatchResult{}, ErrClosed
	}
	if len(rows) > 0 {
		// The pipeline window: a round beyond MaxInflight waits here under
		// its own deadline. (Load shedding already happened at the batcher
		// queue.)
		select {
		case s.inflight <- struct{}{}:
		case <-ctx.Done():
			s.met.ObserveTimeout()
			return BatchResult{}, ctx.Err()
		}
		defer func() { <-s.inflight }()
	}
	return s.scoreHeld(ctx, rows)
}

// scoreHeld is the body of ScoreBatch, for a round that holds its window
// slot already: a bulk round took it in ScoreBatch, a micro-batch took it
// in the batcher.
func (s *Server) scoreHeld(ctx context.Context, rows []int32) (BatchResult, error) {
	if s.closing.Load() {
		return BatchResult{}, ErrClosed // Close began while this round waited for its slot
	}
	mv, ok := s.cfg.Registry.Current()
	if !ok {
		return BatchResult{}, ErrNoModel
	}
	if len(rows) == 0 {
		return BatchResult{Version: mv.Version}, nil
	}
	if !s.opened.Load() {
		return BatchResult{}, fmt.Errorf("serve: session not opened")
	}
	s.met.ObserveInflight(1)
	defer s.met.ObserveInflight(-1)

	// Send phase, under the send lock: ids are assigned and requests
	// written in one order, so ids rise monotonically on every FIFO link.
	if err := s.lockSend(ctx); err != nil {
		return BatchResult{}, err
	}
	round := s.round.Add(1)
	var batchLabel, roundLabel string
	if s.cfg.Trace != nil {
		batchLabel = fmt.Sprintf("round %d n=%d v=%d", round, len(rows), mv.Version)
		roundLabel = fmt.Sprintf("round %d", round)
	}
	doneBatch := s.cfg.Trace.Span("B:ScoreBatch", batchLabel)
	defer doneBatch()

	req := core.MsgScoreRequest{Round: round, Version: mv.Version, Rows: rows}
	missing := make(map[int]bool)
	causes := make([]error, len(s.workers)) // why each missing party is missing, if it said
	waiters := make([]*roundWaiter, len(s.workers))
	wanStart := time.Now()
	doneWAN := s.cfg.Trace.Span("B:ScoreWAN", roundLabel)
	for i, ws := range s.workers {
		// Breaker admission first; a half-open probe rides the same path as
		// any round (and re-dials a dead session like any round).
		if allow, _ := ws.breaker.Allow(); !allow {
			missing[i] = true
			continue
		}
		w := &roundWaiter{routes: mv.routes, ch: make(chan workerAnswer, 1)}
		if err := s.post(ctx, ws, req, w); err != nil {
			missing[i], causes[i] = true, err
			continue
		}
		waiters[i] = w
	}
	s.unlockSend()

	bits := mv.routes.NewRoundBits(len(rows))
	var appErr error
	for i, w := range waiters {
		if w == nil {
			continue
		}
		if err := s.await(ctx, s.workers[i], req, w, bits); err != nil {
			var we *workerError
			if errors.As(err, &we) && appErr == nil {
				appErr = err
			}
			missing[i], causes[i] = true, err
		}
	}
	doneWAN()
	s.met.ObserveWAN(time.Since(wanStart))

	if len(missing) > 0 && s.cfg.Policy != ServePartial {
		if appErr != nil {
			return BatchResult{}, appErr
		}
		if err := ctx.Err(); err != nil {
			return BatchResult{}, err
		}
		err := fmt.Errorf("%w: parties %v", ErrPartyUnavailable, sortedParties(missing))
		for _, cause := range causes {
			if cause != nil { // the first missing party that failed, not merely refused by its breaker
				return BatchResult{}, fmt.Errorf("%w: %w", err, cause)
			}
		}
		return BatchResult{}, err
	}

	routeStart := time.Now()
	doneRoute := s.cfg.Trace.Span("B:ScoreRoute", roundLabel)
	margins, _, err := mv.routes.RouteMargins(mv.LearningRate, mv.BaseScore, s.cfg.Data, rows, bits, missing)
	doneRoute()
	s.met.ObserveRoute(time.Since(routeStart))
	if err != nil {
		return BatchResult{}, err
	}
	s.met.ObserveBatch(len(rows))
	res := BatchResult{Margins: margins, Version: mv.Version}
	if len(missing) > 0 {
		res.Missing = sortedParties(missing)
	}
	return res, nil
}

// post writes req to worker ws and registers w for the answer, feeding
// the breaker on failure. A session that has not carried the reach links
// of the request's version gets them first. A dead session is re-opened
// first (dialer and retry budget permitting); a link that fails under the
// write is severed and, once per round and link, re-opened and written to
// again. A re-sent request takes a fresh id, so nothing the dead session
// (or a leftover of it on the same topics) still answers can satisfy it.
// Called under the send lock.
func (s *Server) post(ctx context.Context, ws *workerState, req core.MsgScoreRequest, w *roundWaiter) error {
	for {
		var lost uint64
		if w.retried {
			lost = w.sess.epoch
			req.Round = s.round.Add(1)
		}
		ss, err := s.liveSession(ctx, ws, lost)
		if err != nil {
			return err
		}
		w.sess, w.id = ss, req.Round
		if err = ws.register(w); err == nil {
			if !ss.reach[req.Version] {
				if err = ss.link.SendContext(ctx, core.MsgScoreReach{Version: req.Version, Trees: w.routes.Reach(ws.party)}); err == nil {
					ss.reach[req.Version] = true
				}
			}
			if err == nil {
				if err = ss.link.SendContext(ctx, req); err == nil {
					return nil
				}
			}
			ws.forget(w)
		}
		if ctx.Err() != nil {
			// Out of budget mid-write: the link may be merely congested.
			ws.breaker.Failure(true)
			s.met.ObserveTimeout()
			return err
		}
		ws.lose(ss, err)
		if w.retried {
			return err
		}
		w.retried = true
	}
}

// await waits for worker ws's answer to the round and files its routing
// bitmaps in bits, feeding its breaker. A round that runs out of budget
// withdraws its waiter and leaves the session open — it may be merely
// slow, and the late answer is dropped by the pump — which is what lets a
// session survive a timeout. A session severed under the round is retried
// once: re-opened by whichever of its rounds gets the send lock first, and
// re-sent on by each. An answer at the wrong version, or with a bitmap
// that is not ⌈rows/8⌉ bytes, is a protocol violation: the session is
// severed and the party drops out of the round.
func (s *Server) await(ctx context.Context, ws *workerState, req core.MsgScoreRequest, w *roundWaiter, bits *core.RoundBits) error {
	for {
		var ans workerAnswer
		select {
		case ans = <-w.ch:
		case <-ctx.Done():
			ws.forget(w)
			ws.breaker.Failure(true)
			s.met.ObserveTimeout()
			return ctx.Err()
		}
		if ans.err != nil {
			if w.retried || s.closing.Load() {
				return fmt.Errorf("serve: round %d: %w", req.Round, ans.err)
			}
			w.retried = true
			if err := s.lockSend(ctx); err != nil {
				return err
			}
			err := s.post(ctx, ws, req, w)
			s.unlockSend()
			if err != nil {
				return fmt.Errorf("serve: round %d: %v; re-send failed: %w", req.Round, ans.err, err)
			}
			continue
		}
		resp := ans.resp
		if resp.Version != req.Version {
			err := fmt.Errorf("serve: worker %d answered round %d at v%d, expected v%d", ws.party, resp.Round, resp.Version, req.Version)
			ws.lose(w.sess, err)
			return err
		}
		if resp.Error == "" {
			if err := bits.Place(ws.party, resp.Nodes); err != nil {
				err = fmt.Errorf("serve: worker %d answered round %d: %w", ws.party, resp.Round, err)
				ws.lose(w.sess, err)
				return err
			}
		}
		ws.breaker.Success()
		if resp.Error != "" {
			// The link is healthy — the refusal is the application's.
			return &workerError{party: ws.party, round: req.Round, msg: resp.Error}
		}
		return nil
	}
}

func sortedParties(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for p := range m {
		out = append(out, p)
	}
	sort.Ints(out)
	return out
}

// Close drains the batcher and the rounds in flight, then closes the
// scoring session on every live worker with an acknowledged
// MsgScoreClose. Rounds that have not drained within cfg.Deadline (a
// ScoreRows round on a black-holed link has no budget of its own) are
// failed by severing the links instead. Safe to call once.
func (s *Server) Close() error {
	if s.closing.Swap(true) {
		return nil
	}
	s.batcher.Close()
	if !s.opened.Load() {
		return nil
	}
	// Holding every window slot means no round is in flight; a round that
	// gets one after us sees closing and leaves.
	timer := time.NewTimer(s.cfg.Deadline)
	defer timer.Stop()
	held := 0
	defer func() {
		for ; held > 0; held-- {
			<-s.inflight
		}
	}()
	for held < cap(s.inflight) {
		select {
		case s.inflight <- struct{}{}:
			held++
		case <-timer.C:
			for _, ws := range s.workers {
				ws.sever(ws.current(), fmt.Errorf("serve: worker %d link lost: %w", ws.party, ErrClosed))
			}
			return fmt.Errorf("serve: close: %d rounds still in flight after %v, links severed", cap(s.inflight)-held, s.cfg.Deadline)
		}
	}
	return s.closeSessions("server shutdown")
}

// closeSessions sends MsgScoreClose to every worker whose link is up and
// waits, up to cfg.Deadline each, for its acknowledgement. The caller has
// set closing, so the pumps accept the acks.
func (s *Server) closeSessions(reason string) error {
	var firstErr error
	for i, ws := range s.workers {
		ss := ws.current()
		select {
		case <-ss.done:
			continue // severed: the worker has left already
		default:
		}
		if err := ss.link.Send(core.MsgScoreClose{Reason: reason}); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("serve: closing worker %d: %w", i, err)
			}
			continue
		}
		// Answers to rounds that gave up may still be ahead of the ack; the
		// pump drops them.
		ack := time.NewTimer(s.cfg.Deadline)
		select {
		case <-ss.closed:
		case <-ss.done:
		case <-ack.C:
		}
		ack.Stop()
	}
	return firstErr
}

// --- HTTP front end ---------------------------------------------------

// DeadlineHeader carries a per-request scoring budget as a Go duration
// ("750ms") or an integer millisecond count.
const DeadlineHeader = "X-Score-Deadline"

type scoreRequest struct {
	Row  *int32  `json:"row,omitempty"`
	Rows []int32 `json:"rows,omitempty"`
}

type scoreResponse struct {
	Margin  *float64  `json:"margin,omitempty"`
	Margins []float64 `json:"margins,omitempty"`
	Version uint64    `json:"version"`
	// Partial marks a degraded answer: Missing lists the passive parties
	// whose trees the margins omit.
	Partial bool  `json:"partial,omitempty"`
	Missing []int `json:"missing,omitempty"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler serves the HTTP API: POST /score scores one row (through the
// micro-batcher) or an explicit row list (one direct round); GET /healthz
// is process liveness, GET /readyz is serving readiness, GET /metricsz
// exposes instrumentation.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /score", s.handleScore)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: msg})
}

// requestDeadline resolves one request's scoring budget: header value if
// present (clamped to maxDeadline), the server default otherwise.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	h := r.Header.Get(DeadlineHeader)
	if h == "" {
		return s.cfg.Deadline, nil
	}
	d, err := time.ParseDuration(h)
	if err != nil {
		ms, err2 := strconv.Atoi(h)
		if err2 != nil {
			return 0, fmt.Errorf("bad %s header %q: want a duration or milliseconds", DeadlineHeader, h)
		}
		d = time.Duration(ms) * time.Millisecond
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad %s header %q: budget must be positive", DeadlineHeader, h)
	}
	if d > maxDeadline {
		d = maxDeadline
	}
	return d, nil
}

// retryAfterQueue estimates seconds until the queue drains enough to
// admit again — the Retry-After on a 429.
func (s *Server) retryAfterQueue() int {
	return retryAfterQueue(s.batcher.Queued(), s.cfg, s.met.WAN())
}

// retryAfterQueue is the drain time of queued requests: ⌈queued/MaxBatch⌉
// rounds, MaxInflight of them at a time, each taking the median measured
// round trip (wan) — or the default Deadline before any round has run —
// clamped to [1s, 30s].
func retryAfterQueue(queued int64, cfg ServerConfig, wan *Histogram) int {
	round := cfg.Deadline
	if wan.Count() > 0 {
		round = time.Duration(wan.Quantile(0.5) * float64(time.Millisecond))
	}
	rounds := math.Ceil(float64(queued) / float64(cfg.Batch.MaxBatch))
	secs := int(math.Ceil(rounds * round.Seconds() / float64(cfg.MaxInflight)))
	return min(max(secs, 1), 30)
}

// retryAfterBreaker is the longest remaining breaker cooldown — after
// that a probe may close the circuit, so it is the honest 503 hint.
func (s *Server) retryAfterBreaker() int {
	var max time.Duration
	for _, ws := range s.workers {
		if d := ws.breaker.CooldownRemaining(); d > max {
			max = d
		}
	}
	secs := int(math.Ceil(max.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeScoreError maps a scoring error to its status, with Retry-After
// on backpressure responses.
func (s *Server) writeScoreError(w http.ResponseWriter, err error) {
	code := scoreStatus(err)
	switch code {
	case http.StatusTooManyRequests:
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterQueue()))
	case http.StatusServiceUnavailable:
		if errors.Is(err, ErrPartyUnavailable) {
			w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterBreaker()))
		} else {
			w.Header().Set("Retry-After", "1")
		}
	}
	httpError(w, code, err.Error())
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req scoreRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: "+err.Error())
		return
	}
	budget, err := s.requestDeadline(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()
	var resp scoreResponse
	switch {
	case req.Row != nil && req.Rows == nil:
		res, err := s.ScoreRow(ctx, *req.Row)
		if err != nil {
			s.writeScoreError(w, err)
			return
		}
		resp = scoreResponse{Margin: &res.Margin, Version: res.Version, Partial: res.Partial(), Missing: res.Missing}
	case req.Rows != nil && req.Row == nil:
		start := time.Now()
		res, err := s.ScoreBatch(ctx, req.Rows)
		s.met.ObserveRequest(time.Since(start), err)
		s.observeOutcome(res.Missing, err)
		if err != nil {
			s.writeScoreError(w, err)
			return
		}
		if res.Margins == nil {
			res.Margins = []float64{}
		}
		resp = scoreResponse{Margins: res.Margins, Version: res.Version, Partial: len(res.Missing) > 0, Missing: res.Missing}
	default:
		httpError(w, http.StatusBadRequest, `body must carry exactly one of "row" or "rows"`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func scoreStatus(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrPartyUnavailable),
		errors.Is(err, ErrClosed),
		errors.Is(err, ErrNoModel):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handleHealthz is process liveness only: the process is up and not
// shutting down. Whether it can actually serve is /readyz's question.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.closing.Load() {
		http.Error(w, "closing", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz is serving readiness: a published model version and an
// open scoring session, with every party reachable — or, under
// ServePartial, at least the ability to answer degraded.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.closing.Load() {
		http.Error(w, "closing", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.Registry.CurrentVersion() == 0 {
		http.Error(w, "no model published", http.StatusServiceUnavailable)
		return
	}
	if !s.opened.Load() {
		http.Error(w, "scoring session not open", http.StatusServiceUnavailable)
		return
	}
	var down []int
	for i, ws := range s.workers {
		if !ws.alive.Load() || ws.breaker.State() == BreakerOpen {
			down = append(down, i)
		}
	}
	switch {
	case len(down) == 0:
		fmt.Fprintln(w, "ok")
	case s.cfg.Policy == ServePartial:
		fmt.Fprintf(w, "ok (degraded: parties %v unavailable)\n", down)
	default:
		http.Error(w, fmt.Sprintf("parties %v unavailable", down), http.StatusServiceUnavailable)
	}
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	m := s.met
	fmt.Fprintf(w, "serve_uptime_seconds %.3f\n", m.Uptime().Seconds())
	fmt.Fprintf(w, "serve_model_version %d\n", s.cfg.Registry.CurrentVersion())
	fmt.Fprintf(w, "serve_model_versions %d\n", len(s.cfg.Registry.Versions()))
	fmt.Fprintf(w, "serve_requests_total %d\n", m.Requests())
	fmt.Fprintf(w, "serve_batches_total %d\n", m.Batches())
	fmt.Fprintf(w, "serve_errors_total %d\n", m.Errors())
	fmt.Fprintf(w, "serve_shed_total %d\n", m.Shed())
	fmt.Fprintf(w, "serve_timeouts_total %d\n", m.Timeouts())
	fmt.Fprintf(w, "serve_degraded_total %d\n", m.Degraded())
	fmt.Fprintf(w, "serve_retries_total %d\n", m.Retries())
	fmt.Fprintf(w, "serve_rounds_inflight %d\n", m.RoundsInflight())
	fmt.Fprintf(w, "serve_stale_responses_total %d\n", m.StaleResponses())
	fmt.Fprintf(w, "serve_queue_depth %d\n", s.batcher.Queued())
	fmt.Fprintf(w, "serve_queue_max %d\n", s.batcher.MaxQueue())
	fmt.Fprintf(w, "serve_degraded_policy %q\n", s.cfg.Policy)
	fmt.Fprintf(w, "serve_qps %.2f\n", m.QPS())
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fmt.Fprintf(w, "serve_request_latency_ms{q=%q} %.4f\n", fmt.Sprintf("%.2f", q), m.Latency().Quantile(q))
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fmt.Fprintf(w, "serve_wan_latency_ms{q=%q} %.4f\n", fmt.Sprintf("%.2f", q), m.WAN().Quantile(q))
	}
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fmt.Fprintf(w, "serve_route_latency_ms{q=%q} %.4f\n", fmt.Sprintf("%.2f", q), m.Route().Quantile(q))
	}
	fmt.Fprintf(w, "serve_batch_size_avg %.2f\n", m.BatchSize().Mean())
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fmt.Fprintf(w, "serve_batch_size{q=%q} %.2f\n", fmt.Sprintf("%.2f", q), m.BatchSize().Quantile(q))
	}
	for c := FlushCause(0); c < numFlushCauses; c++ {
		fmt.Fprintf(w, "serve_batcher_flushes_total{cause=%q} %d\n", c, m.Flushes(c))
	}
	fmt.Fprintf(w, "serve_batcher_flush_size_avg %.2f\n", m.FlushSize().Mean())
	for _, q := range []float64{0.50, 0.95, 0.99} {
		fmt.Fprintf(w, "serve_batcher_flush_size{q=%q} %.2f\n", fmt.Sprintf("%.2f", q), m.FlushSize().Quantile(q))
	}
	for _, ws := range s.workers {
		party := strconv.Itoa(ws.party)
		fmt.Fprintf(w, "serve_breaker_state{party=%q,state=%q} 1\n", party, ws.breaker.State())
		fmt.Fprintf(w, "serve_breaker_opens_total{party=%q} %d\n", party, ws.breaker.Opens())
		alive := 0
		if ws.alive.Load() {
			alive = 1
		}
		fmt.Fprintf(w, "serve_worker_alive{party=%q} %d\n", party, alive)
	}
	if s.cfg.Broker != nil {
		depths := s.cfg.Broker.TopicDepths()
		topics := make([]string, 0, len(depths))
		for t := range depths {
			topics = append(topics, t)
		}
		sort.Strings(topics)
		for _, t := range topics {
			fmt.Fprintf(w, "mq_topic_depth{topic=%q} %d\n", t, depths[t])
		}
	}
}
