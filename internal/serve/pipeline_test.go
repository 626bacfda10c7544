package serve

// Tests for pipelined scoring rounds: several rounds share a worker link,
// answers are matched to their callers by round id, and the PR 4 failure
// contract (deadlines, link loss, breaker, degraded serving, close) holds
// with N rounds in flight. Ordering is scripted, not slept for: the
// transport holds every worker answer until the test releases it.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/wire"
)

// failsafe bounds every scripted wait: it only fires when the code under
// test hangs, never to order events.
const failsafe = 10 * time.Second

// heldAnswer is a worker response the script has not delivered yet.
type heldAnswer struct {
	resp core.MsgScoreResponse
	raw  []byte
}

// scriptLink is an in-memory server↔worker link. Server→worker frames
// pass straight through (and requests are announced on requests, in wire
// order); worker→server responses are parked on answers until the test
// releases them, in whatever order it likes. Handshake acks are never
// held.
type scriptLink struct {
	t        testing.TB
	toWorker chan []byte
	toServer chan []byte
	requests chan core.MsgScoreRequest
	answers  chan heldAnswer
	done     chan struct{}
	once     sync.Once

	blackhole atomic.Bool // server→worker frames vanish (requests still announced)
	passthru  atomic.Bool // worker responses are delivered without being held

	mu          sync.Mutex
	outstanding int // requests written minus answers released
	maxOut      int
	written     int // requests written in total
	closeSent   bool
}

// newScriptLink sizes every queue well past the frames any test puts on
// a link, so the script itself never blocks the code under test.
func newScriptLink(t testing.TB) *scriptLink {
	return &scriptLink{
		t:        t,
		toWorker: make(chan []byte, 64),
		toServer: make(chan []byte, 64),
		requests: make(chan core.MsgScoreRequest, 64),
		answers:  make(chan heldAnswer, 64),
		done:     make(chan struct{}),
	}
}

func (l *scriptLink) decode(b []byte) any {
	m, err := wire.Binary.Decode(b)
	if err != nil {
		l.t.Errorf("script link: %v", err)
	}
	return m
}

// cut severs the link: both ends see io.EOF from now on.
func (l *scriptLink) cut() { l.once.Do(func() { close(l.done) }) }

type scriptServerEnd struct{ l *scriptLink }

func (e scriptServerEnd) Send(b []byte) error {
	l := e.l
	select {
	case <-l.done:
		return io.EOF
	default:
	}
	cp := append([]byte(nil), b...)
	switch m := l.decode(cp).(type) {
	case core.MsgScoreRequest:
		l.mu.Lock()
		l.written++
		l.outstanding++
		if l.outstanding > l.maxOut {
			l.maxOut = l.outstanding
		}
		l.mu.Unlock()
		l.requests <- m
	case core.MsgScoreClose:
		l.mu.Lock()
		l.closeSent = true
		l.mu.Unlock()
	}
	if l.blackhole.Load() {
		return nil
	}
	select {
	case l.toWorker <- cp:
		return nil
	case <-l.done:
		return io.EOF
	}
}

func (e scriptServerEnd) Receive() ([]byte, error) {
	select {
	case b := <-e.l.toServer:
		return b, nil
	case <-e.l.done:
		return nil, io.EOF
	}
}

func (e scriptServerEnd) Close() error { e.l.cut(); return nil }

type scriptWorkerEnd struct{ l *scriptLink }

func (e scriptWorkerEnd) Send(b []byte) error {
	l := e.l
	cp := append([]byte(nil), b...)
	if resp, ok := l.decode(cp).(core.MsgScoreResponse); ok && !l.passthru.Load() {
		l.answers <- heldAnswer{resp: resp, raw: cp}
		return nil
	}
	select {
	case l.toServer <- cp:
		return nil
	case <-l.done:
		return io.EOF
	}
}

func (e scriptWorkerEnd) Receive() ([]byte, error) {
	select {
	case b := <-e.l.toWorker:
		return b, nil
	case <-e.l.done:
		return nil, io.EOF
	}
}

// nextRequest blocks until the server has written its next request.
func (l *scriptLink) nextRequest() core.MsgScoreRequest {
	l.t.Helper()
	select {
	case r := <-l.requests:
		return r
	case <-time.After(failsafe):
		l.t.Fatal("script link: the server never wrote the expected request")
		panic("unreachable")
	}
}

// nextAnswer blocks until the worker has produced its next response.
func (l *scriptLink) nextAnswer() heldAnswer {
	l.t.Helper()
	select {
	case a := <-l.answers:
		return a
	case <-time.After(failsafe):
		l.t.Fatal("script link: the worker never produced the expected answer")
		panic("unreachable")
	}
}

// release delivers a held answer to the server.
func (l *scriptLink) release(a heldAnswer) {
	l.mu.Lock()
	l.outstanding--
	l.mu.Unlock()
	l.toServer <- a.raw
}

// inject delivers an arbitrary frame to the server.
func (l *scriptLink) inject(m any) {
	l.t.Helper()
	b, err := wire.Binary.Encode(m)
	if err != nil {
		l.t.Fatal(err)
	}
	l.toServer <- b
}

func (l *scriptLink) stats() (written, maxOut int, closeSent bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.written, l.maxOut, l.closeSent
}

// pipeFixture is a server with one real PassiveWorker per passive party,
// each behind a scriptLink.
type pipeFixture struct {
	t       *testing.T
	parts   []*dataset.Dataset
	model   *core.FederatedModel
	want    []float64
	wregs   []*Registry
	breg    *Registry
	workers []*PassiveWorker
	links   []*scriptLink
	done    []chan error
	srv     *Server
}

// newPipeFixture trains a model over the given feature split (the last
// block is B's), starts the workers and opens the session. tune may edit
// the server config before NewServer.
func newPipeFixture(t *testing.T, split []int, seed int64, tune func(*ServerConfig, *pipeFixture)) *pipeFixture {
	t.Helper()
	cols := 0
	for _, c := range split {
		cols += c
	}
	d, err := dataset.Generate(dataset.GenOptions{Rows: 96, Cols: cols, Density: 1, Dense: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit(split, len(split)-1)
	if err != nil {
		t.Fatal(err)
	}
	f := &pipeFixture{t: t, parts: parts, model: trainModel(t, parts, 6), breg: NewRegistry()}
	f.want = predictAll(t, f.model, parts)
	if err := f.breg.Publish(bModel(1, f.model)); err != nil {
		t.Fatal(err)
	}
	cfg := ServerConfig{Data: parts[len(parts)-1], Registry: f.breg}
	for i := 0; i < len(parts)-1; i++ {
		reg := NewRegistry()
		if err := reg.Publish(Model{Version: 1, Fragment: f.model.Parties[i]}); err != nil {
			t.Fatal(err)
		}
		f.wregs = append(f.wregs, reg)
		f.workers = append(f.workers, NewPassiveWorker(i, parts[i], reg))
		f.done = append(f.done, make(chan error, 4))
		f.links = append(f.links, f.serveLink(i))
		cfg.Workers = append(cfg.Workers, scriptServerEnd{f.links[i]})
	}
	if tune != nil {
		tune(&cfg, f)
	}
	if f.srv, err = NewServer(cfg); err != nil {
		t.Fatal(err)
	}
	if err := f.srv.Open(); err != nil {
		t.Fatal(err)
	}
	return f
}

// serveLink starts worker i on a fresh scripted link.
func (f *pipeFixture) serveLink(i int) *scriptLink {
	l := newScriptLink(f.t)
	w, done := f.workers[i], f.done[i]
	go func() { done <- w.Run(scriptWorkerEnd{l}) }()
	return l
}

type roundOutcome struct {
	res BatchResult
	err error
}

// score starts a round on its own goroutine.
func (f *pipeFixture) score(ctx context.Context, rows []int32) <-chan roundOutcome {
	ch := make(chan roundOutcome, 1)
	go func() {
		res, err := f.srv.ScoreBatch(ctx, rows)
		ch <- roundOutcome{res, err}
	}()
	return ch
}

// outcome waits for a started round.
func (f *pipeFixture) outcome(ch <-chan roundOutcome) roundOutcome {
	f.t.Helper()
	select {
	case o := <-ch:
		return o
	case <-time.After(failsafe):
		f.t.Fatal("round never returned")
		panic("unreachable")
	}
}

// full asserts a full-fidelity outcome whose margins equal the model's
// own predictions exactly.
func (f *pipeFixture) full(o roundOutcome, rows []int32, want []float64, version uint64) {
	f.t.Helper()
	if o.err != nil {
		f.t.Fatalf("round failed: %v", o.err)
	}
	if len(o.res.Missing) != 0 || o.res.Version != version || len(o.res.Margins) != len(rows) {
		f.t.Fatalf("round answered %d margins at v%d missing %v; want %d at v%d, none missing",
			len(o.res.Margins), o.res.Version, o.res.Missing, len(rows), version)
	}
	for k, r := range rows {
		if o.res.Margins[k] != want[r] {
			f.t.Fatalf("row %d margin %v, want exactly %v", r, o.res.Margins[k], want[r])
		}
	}
}

// pending asserts a started round has not returned.
func (f *pipeFixture) pending(ch <-chan roundOutcome, why string) {
	f.t.Helper()
	select {
	case o := <-ch:
		f.t.Fatalf("round returned (%v) %s", o.err, why)
	default:
	}
}

// close shuts the server and every worker session that is still being
// served.
func (f *pipeFixture) close() {
	f.t.Helper()
	if err := f.srv.Close(); err != nil {
		f.t.Fatalf("Close: %v", err)
	}
	for i := range f.workers {
		select {
		case err := <-f.done[i]:
			if err != nil {
				f.t.Fatalf("worker %d: %v", i, err)
			}
		case <-time.After(failsafe):
			f.t.Fatalf("worker %d did not leave its session after Close", i)
		}
	}
}

// breakerLedger reads a breaker's outcome window.
func breakerLedger(b *Breaker) (outcomes, failures int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.wlen, b.fails
}

var twoWay = []int{5, 5}

// (a) Two rounds are both on the wire before either answer exists at the
// server; released in reverse order, each answer reaches its own caller.
func TestPipelineOverlapsRoundsAndDemuxesByID(t *testing.T) {
	f := newPipeFixture(t, twoWay, 201, nil)
	rowsA, rowsB := []int32{0, 1, 2, 3}, []int32{9, 7, 5}

	a := f.score(context.Background(), rowsA)
	reqA := f.links[0].nextRequest()
	b := f.score(context.Background(), rowsB)
	reqB := f.links[0].nextRequest()
	if reqB.Round <= reqA.Round {
		t.Fatalf("request ids on the link went %d then %d; they must rise", reqA.Round, reqB.Round)
	}
	if got := f.srv.Metrics().RoundsInflight(); got != 2 {
		t.Fatalf("rounds in flight = %d with two requests on the wire, want 2", got)
	}
	ansA, ansB := f.links[0].nextAnswer(), f.links[0].nextAnswer()
	if ansA.resp.Round != reqA.Round || ansB.resp.Round != reqB.Round {
		t.Fatalf("worker answered rounds %d, %d for requests %d, %d", ansA.resp.Round, ansB.resp.Round, reqA.Round, reqB.Round)
	}

	f.links[0].release(ansB)
	f.full(f.outcome(b), rowsB, f.want, 1)
	f.pending(a, "before its own answer was released")
	f.links[0].release(ansA)
	f.full(f.outcome(a), rowsA, f.want, 1)

	if got := f.srv.Metrics().RoundsInflight(); got != 0 {
		t.Errorf("rounds in flight = %d after both returned, want 0", got)
	}
	if got := f.srv.Metrics().StaleResponses(); got != 0 {
		t.Errorf("stale responses = %d, want 0", got)
	}
	f.close()
}

// (b) MaxInflight is the pipeline depth: a round beyond it is not
// written until a round in flight finishes.
func TestPipelineWindowBoundsOutstandingRequests(t *testing.T) {
	f := newPipeFixture(t, twoWay, 202, func(c *ServerConfig, _ *pipeFixture) { c.MaxInflight = 2 })
	l := f.links[0]
	rows := []int32{1, 2, 3}

	r1 := f.score(context.Background(), rows)
	l.nextRequest()
	r2 := f.score(context.Background(), rows)
	l.nextRequest()

	// The window is full: a third round runs out of budget waiting for a
	// slot, and must do so without ever having touched the link.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	o3 := f.outcome(f.score(ctx, rows))
	cancel()
	if !errors.Is(o3.err, context.DeadlineExceeded) {
		t.Fatalf("round beyond the window returned %v, want context.DeadlineExceeded", o3.err)
	}
	if written, _, _ := l.stats(); written != 2 {
		t.Fatalf("%d requests written with a window of 2 and none answered", written)
	}

	// A fourth waits for a slot; it is written when round 1 finishes.
	r4 := f.score(context.Background(), rows)
	ans1 := l.nextAnswer()
	l.release(ans1)
	f.full(f.outcome(r1), rows, f.want, 1)
	l.nextRequest()
	l.release(l.nextAnswer())
	f.full(f.outcome(r2), rows, f.want, 1)
	l.release(l.nextAnswer())
	f.full(f.outcome(r4), rows, f.want, 1)

	if _, maxOut, _ := l.stats(); maxOut > 2 {
		t.Errorf("up to %d requests were outstanding, MaxInflight is 2", maxOut)
	}
	f.close()
}

// (c) Round k runs out of budget while k+1 is in flight: k alone fails,
// the session stays open, and k's late answer is dropped and counted.
func TestPipelineTimeoutLeavesLaterRoundsAlone(t *testing.T) {
	f := newPipeFixture(t, twoWay, 203, nil)
	l := f.links[0]
	rowsK, rowsK1 := []int32{4, 5}, []int32{6, 7, 8}

	ctx, cancel := context.WithTimeout(context.Background(), 40*time.Millisecond)
	defer cancel()
	k := f.score(ctx, rowsK)
	l.nextRequest()
	k1 := f.score(context.Background(), rowsK1)
	l.nextRequest()
	ansK, ansK1 := l.nextAnswer(), l.nextAnswer()

	if o := f.outcome(k); !errors.Is(o.err, context.DeadlineExceeded) {
		t.Fatalf("round k returned %v, want context.DeadlineExceeded", o.err)
	}
	f.pending(k1, "although only round k timed out")
	l.release(ansK1)
	f.full(f.outcome(k1), rowsK1, f.want, 1)

	// k's answer lands late. A further round on the same FIFO link fences
	// it: once that round has its answer, the pump has seen the late one.
	l.release(ansK)
	k2 := f.score(context.Background(), rowsK)
	l.nextRequest()
	l.release(l.nextAnswer())
	f.full(f.outcome(k2), rowsK, f.want, 1)

	met := f.srv.Metrics()
	if got := met.StaleResponses(); got != 1 {
		t.Errorf("stale responses = %d, want 1 (round k's late answer)", got)
	}
	if met.Timeouts() != 1 || met.Retries() != 0 {
		t.Errorf("timeouts = %d, retries = %d; want 1 and 0", met.Timeouts(), met.Retries())
	}
	if !f.srv.workers[0].alive.Load() {
		t.Error("a timed-out round closed the session")
	}
	if outcomes, failures := breakerLedger(f.srv.Breaker(0)); outcomes != 3 || failures != 1 {
		t.Errorf("breaker saw %d outcomes, %d failures; want 3 and 1 (one timeout)", outcomes, failures)
	}
	if got := f.srv.Breaker(0).State(); got != BreakerClosed {
		t.Errorf("breaker state = %v, want closed", got)
	}

	// Both pipeline numbers are on /metricsz.
	rec := httptest.NewRecorder()
	f.srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, line := range []string{"serve_rounds_inflight 0\n", "serve_stale_responses_total 1\n"} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("/metricsz lacks %q", line)
		}
	}
	f.close()
}

// hardCut puts three rounds in flight on worker 0's link and cuts it
// before any answer is delivered. It returns the started rounds, their
// rows, and an answer of the dead session.
func hardCut(f *pipeFixture) (rounds []<-chan roundOutcome, rows [][]int32, old heldAnswer) {
	rows = [][]int32{{0, 1}, {2, 3, 4}, {5}}
	for _, r := range rows {
		rounds = append(rounds, f.score(context.Background(), r))
		f.links[0].nextRequest()
	}
	for range rows {
		old = f.links[0].nextAnswer()
	}
	f.links[0].cut()
	return rounds, rows, old
}

// (d) A hard cut with three rounds in flight: one redial on one retry
// token re-opens the session for all of them, each is re-sent under a
// fresh id, and nothing the dead session answered is accepted.
func TestPipelineHardCutReopensOnceForAllRounds(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var dials atomic.Int32
	relinked := make(chan *scriptLink, 4)
	f := newPipeFixture(t, twoWay, 204, func(c *ServerConfig, f *pipeFixture) {
		c.Dialers = []func() (core.Transport, error){func() (core.Transport, error) {
			dials.Add(1)
			l := f.serveLink(0)
			relinked <- l
			return scriptServerEnd{l}, nil
		}}
	})
	rounds, rows, old := hardCut(f)

	l2 := <-relinked
	for range rows {
		if req := l2.nextRequest(); req.Round <= old.resp.Round {
			t.Fatalf("re-sent request reuses id %d; the dead session saw ids up to %d", req.Round, old.resp.Round)
		}
	}
	// A leftover of the dead session turns up on the new one (the gateway
	// keeps topics across sessions): it must satisfy nobody.
	l2.toServer <- old.raw
	for range rows {
		l2.release(l2.nextAnswer())
	}
	for i, r := range rounds {
		f.full(f.outcome(r), rows[i], f.want, 1)
	}

	met := f.srv.Metrics()
	if dials.Load() != 1 || met.Retries() != 1 {
		t.Errorf("%d dials, %d retry tokens for one lost session; want 1 and 1", dials.Load(), met.Retries())
	}
	if got := met.StaleResponses(); got != 1 {
		t.Errorf("stale responses = %d, want 1 (the dead session's answer)", got)
	}
	if outcomes, failures := breakerLedger(f.srv.Breaker(0)); outcomes != 4 || failures != 1 {
		t.Errorf("breaker saw %d outcomes, %d failures; want 4 and 1 (one loss, three successes)", outcomes, failures)
	}
	if err := <-f.done[0]; err != nil { // the cut session's Run
		t.Fatalf("worker on the cut link: %v", err)
	}
	f.close()

	deadline := time.Now().Add(failsafe)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before the test:\n%s", runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// (d, continued) When the one redial fails, every round in flight fails
// with the party-unavailable error, and nobody dials again.
func TestPipelineHardCutFailedRedialFailsAllRounds(t *testing.T) {
	var dials atomic.Int32
	f := newPipeFixture(t, twoWay, 205, func(c *ServerConfig, _ *pipeFixture) {
		c.Dialers = []func() (core.Transport, error){func() (core.Transport, error) {
			dials.Add(1)
			return nil, errors.New("peer down")
		}}
	})
	rounds, _, _ := hardCut(f)
	for _, r := range rounds {
		if o := f.outcome(r); !errors.Is(o.err, ErrPartyUnavailable) {
			t.Fatalf("round on the cut link returned %v, want ErrPartyUnavailable", o.err)
		}
	}
	if dials.Load() != 1 || f.srv.Metrics().Retries() != 1 {
		t.Errorf("%d dials, %d retry tokens; three rounds lost one session, want 1 and 1", dials.Load(), f.srv.Metrics().Retries())
	}
	f.close()
}

// (e) A frame that is not a response severs the link and fails every
// round waiting on it.
func TestPipelineProtocolViolationFailsEveryWaiter(t *testing.T) {
	f := newPipeFixture(t, twoWay, 206, nil)
	l := f.links[0]
	r1 := f.score(context.Background(), []int32{0, 1})
	l.nextRequest()
	r2 := f.score(context.Background(), []int32{2})
	l.nextRequest()

	l.inject(core.MsgScoreOpenAck{Proto: core.ScoreProtoVersion, Rows: 96})
	for _, r := range []<-chan roundOutcome{r1, r2} {
		if o := f.outcome(r); !errors.Is(o.err, ErrPartyUnavailable) {
			t.Fatalf("round returned %v after a protocol violation, want ErrPartyUnavailable", o.err)
		}
	}
	if f.srv.workers[0].alive.Load() {
		t.Error("the violating link is still marked alive")
	}
	if _, failures := breakerLedger(f.srv.Breaker(0)); failures != 1 {
		t.Errorf("breaker saw %d failures for one severed link, want 1", failures)
	}
	f.close()
}

// (f) ServePartial with party 1 of 2 black-holed: overlapping rounds all
// come back partial, missing exactly that party.
func TestPipelinePartialServingOverlaps(t *testing.T) {
	f := newPipeFixture(t, []int{4, 3, 3}, 207, func(c *ServerConfig, _ *pipeFixture) {
		c.Policy = ServePartial
		c.Deadline = 100 * time.Millisecond // also how long Close waits for party 1's ack
		c.Breaker = BreakerConfig{ConsecTimeouts: 100, MinSamples: 100}
	})
	f.links[0].passthru.Store(true)
	f.links[1].blackhole.Store(true)

	batches := [][]int32{{0, 1, 2}, {3, 4}, {5, 6, 7, 8}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	var rounds []<-chan roundOutcome
	for _, rows := range batches {
		rounds = append(rounds, f.score(ctx, rows))
		f.links[1].nextRequest() // every round is on the dead link before any gives up
	}
	b := len(f.parts) - 1
	for i, r := range rounds {
		rows := batches[i]
		nodes, err := core.ScorePlacements(f.model.Parties[0], f.parts[0], rows)
		if err != nil {
			t.Fatal(err)
		}
		routes := map[core.RouteKey][]byte{}
		for _, nb := range nodes {
			routes[core.RouteKey{Party: 0, Tree: nb.Tree, Node: nb.Node}] = nb.Bits
		}
		want, skipped, err := core.RoutePartialMargins(f.model.Parties[b], f.model.LearningRate, f.model.BaseScore,
			f.parts[b], rows, routes, map[int]bool{1: true})
		if err != nil {
			t.Fatal(err)
		}
		if skipped == 0 {
			t.Fatal("the model has no party-1 trees; degraded serving would be invisible")
		}
		o := f.outcome(r)
		if o.err != nil {
			t.Fatalf("round %d failed instead of serving partial: %v", i, o.err)
		}
		if fmt.Sprint(o.res.Missing) != "[1]" {
			t.Fatalf("round %d Missing = %v, want [1]", i, o.res.Missing)
		}
		for k := range rows {
			if o.res.Margins[k] != want[k] {
				t.Fatalf("round %d partial margin[%d] = %v, want %v", i, k, o.res.Margins[k], want[k])
			}
		}
	}
	// Party 1's session never got a frame through, so it never acks the
	// close; its worker leaves when the link is cut.
	if err := f.srv.Close(); err != nil {
		t.Fatal(err)
	}
	f.links[1].cut()
	for i := range f.workers {
		if err := <-f.done[i]; err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
}

// (g) A hot swap lands between two overlapping rounds: each is answered
// at the version it pinned, whatever order the answers arrive in.
func TestPipelineHotSwapPinsOverlappingRounds(t *testing.T) {
	f := newPipeFixture(t, twoWay, 208, nil)
	l := f.links[0]
	m2 := trainModel(t, f.parts, 3)
	want2 := predictAll(t, m2, f.parts)
	rows1, rows2 := []int32{0, 5, 17}, []int32{5, 6}

	r1 := f.score(context.Background(), rows1)
	if req := l.nextRequest(); req.Version != 1 {
		t.Fatalf("first round pinned v%d, want v1", req.Version)
	}
	if err := f.wregs[0].Publish(Model{Version: 2, Fragment: m2.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	if err := f.breg.Publish(bModel(2, m2)); err != nil {
		t.Fatal(err)
	}
	r2 := f.score(context.Background(), rows2)
	if req := l.nextRequest(); req.Version != 2 {
		t.Fatalf("round after the swap pinned v%d, want v2", req.Version)
	}
	ans1, ans2 := l.nextAnswer(), l.nextAnswer()
	l.release(ans2)
	f.full(f.outcome(r2), rows2, want2, 2)
	l.release(ans1)
	f.full(f.outcome(r1), rows1, f.want, 1)
	f.close()
}

// (h) Close with three rounds in flight drains them before it closes the
// session.
func TestPipelineCloseDrainsRoundsInFlight(t *testing.T) {
	f := newPipeFixture(t, twoWay, 209, nil)
	l := f.links[0]
	batches := [][]int32{{0}, {1, 2}, {3, 4, 5}}
	var rounds []<-chan roundOutcome
	for _, rows := range batches {
		rounds = append(rounds, f.score(context.Background(), rows))
		l.nextRequest()
	}
	closed := make(chan error, 1)
	go func() { closed <- f.srv.Close() }()
	for i := range batches {
		if _, _, closeSent := l.stats(); closeSent {
			t.Fatalf("MsgScoreClose written with %d rounds still in flight", len(batches)-i)
		}
		l.release(l.nextAnswer())
		f.full(f.outcome(rounds[i]), batches[i], f.want, 1)
	}
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(failsafe):
		t.Fatal("Close never returned although every round drained")
	}
	if err := <-f.done[0]; err != nil {
		t.Fatal(err)
	}
	if _, err := f.srv.ScoreBatch(context.Background(), []int32{0}); !errors.Is(err, ErrClosed) {
		t.Errorf("round after Close returned %v, want ErrClosed", err)
	}
}

// Close must not wait forever for a round that has no budget of its own
// (ScoreRows) on a link that never delivers: after cfg.Deadline it severs
// the links, which fails the round, and returns.
func TestCloseBoundedOnBlackHoledLink(t *testing.T) {
	f := newPipeFixture(t, twoWay, 210, func(c *ServerConfig, _ *pipeFixture) { c.Deadline = 50 * time.Millisecond })
	l := f.links[0]
	l.blackhole.Store(true)

	stuck := make(chan error, 1)
	go func() {
		_, _, err := f.srv.ScoreRows([]int32{0, 1})
		stuck <- err
	}()
	l.nextRequest()

	closed := make(chan error, 1)
	go func() { closed <- f.srv.Close() }()
	select {
	case err := <-closed:
		if err == nil {
			t.Error("Close reported a clean shutdown although a round had to be cut off")
		}
	case <-time.After(failsafe):
		t.Fatal("Close hung behind a round on a black-holed link")
	}
	select {
	case err := <-stuck:
		if !errors.Is(err, ErrPartyUnavailable) {
			t.Errorf("cut-off round returned %v, want ErrPartyUnavailable", err)
		}
	case <-time.After(failsafe):
		t.Fatal("the round on the black-holed link never returned")
	}
	if err := <-f.done[0]; err != nil { // Close severed the link under the worker
		t.Fatal(err)
	}
}
