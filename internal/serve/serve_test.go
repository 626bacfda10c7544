package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"vf2boost/internal/clock"
	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/mq"
)

// --- shared scaffolding ------------------------------------------------

func twoParts(t testing.TB, rows int, seed int64) []*dataset.Dataset {
	t.Helper()
	d, err := dataset.Generate(dataset.GenOptions{Rows: rows, Cols: 10, Density: 1, Dense: true, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{5, 5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return parts
}

func trainModel(t testing.TB, parts []*dataset.Dataset, trees int) *core.FederatedModel {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMock
	cfg.Trees = trees
	cfg.MaxDepth = 3
	cfg.MaxBins = 8
	sess, err := core.NewSession(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	m, err := sess.Train()
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func predictAll(t testing.TB, m *core.FederatedModel, parts []*dataset.Dataset) []float64 {
	t.Helper()
	want, err := m.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// reachMsg is the reach links Party B's server sends passive party p at
// version before the first round pinned to it.
func reachMsg(t testing.TB, m *core.FederatedModel, p int, version uint64) core.MsgScoreReach {
	t.Helper()
	routes, err := core.CompileFragment(m.Parties[len(m.Parties)-1])
	if err != nil {
		t.Fatal(err)
	}
	return core.MsgScoreReach{Version: version, Trees: routes.Reach(p)}
}

func bModel(version uint64, m *core.FederatedModel) Model {
	return Model{
		Version:      version,
		Fragment:     m.Parties[len(m.Parties)-1],
		LearningRate: m.LearningRate,
		BaseScore:    m.BaseScore,
	}
}

// dialTCP dials one end of a scoring link through the gateway, the same
// way cmd/vf2boost does.
func dialTCP(t testing.TB, addr, secret, sendTopic, recvTopic string) core.Transport {
	t.Helper()
	end, err := mq.DialEndpoint(addr, sendTopic, recvTopic, []byte(secret))
	if err != nil {
		t.Fatal(err)
	}
	return end
}

// pipeEnd is an in-memory Transport over buffered channels.
type pipeEnd struct {
	send chan<- []byte
	recv <-chan []byte
}

func (p pipeEnd) Send(b []byte) error {
	p.send <- append([]byte(nil), b...)
	return nil
}

func (p pipeEnd) Receive() ([]byte, error) {
	b, ok := <-p.recv
	if !ok {
		return nil, io.EOF
	}
	return b, nil
}

func pipePair() (core.Transport, core.Transport) {
	b2a := make(chan []byte, 16)
	a2b := make(chan []byte, 16)
	return pipeEnd{send: a2b, recv: b2a}, pipeEnd{send: b2a, recv: a2b}
}

func postScore(ts *httptest.Server, row int32) (float64, uint64, error) {
	body, _ := json.Marshal(scoreRequest{Row: &row})
	resp, err := ts.Client().Post(ts.URL+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return 0, 0, fmt.Errorf("POST /score: %s: %s", resp.Status, msg)
	}
	var sr scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return 0, 0, err
	}
	if sr.Margin == nil {
		return 0, 0, fmt.Errorf("response missing margin")
	}
	return *sr.Margin, sr.Version, nil
}

// firePhase issues n concurrent single-row HTTP requests and checks every
// margin against the expectation for the version the server reports.
func firePhase(t *testing.T, ts *httptest.Server, n int, wantVersion uint64, want []float64) {
	t.Helper()
	rows := len(want)
	var wg sync.WaitGroup
	sem := make(chan struct{}, 64)
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for i := 0; i < n; i++ {
		row := int32(i % rows)
		wg.Add(1)
		sem <- struct{}{}
		go func(row int32) {
			defer wg.Done()
			defer func() { <-sem }()
			margin, version, err := postScore(ts, row)
			switch {
			case err != nil:
				fail(err)
			case version != wantVersion:
				fail(fmt.Errorf("row %d scored on version %d, want %d", row, version, wantVersion))
			case math.Abs(margin-want[row]) > 1e-9:
				fail(fmt.Errorf("row %d margin %g, want %g (version %d)", row, margin, want[row], version))
			}
		}(row)
	}
	wg.Wait()
	if firstErr != nil {
		t.Fatal(firstErr)
	}
}

// --- the acceptance E2E -------------------------------------------------

// TestOnlineScoringEndToEnd: Party B server plus one passive sidecar
// attached through the mq TCP gateway serve >1000 HTTP scoring requests
// via micro-batching, with a hot model swap mid-stream; every margin must
// equal FederatedModel.PredictMargin for the version the batch was pinned
// to.
func TestOnlineScoringEndToEnd(t *testing.T) {
	parts := twoParts(t, 300, 91)
	m1 := trainModel(t, parts, 3)
	m2 := trainModel(t, parts, 5)
	want1 := predictAll(t, m1, parts)
	want2 := predictAll(t, m2, parts)

	secret := "serve-secret"
	broker := mq.NewBroker(mq.WithAuth([]byte(secret)))
	defer broker.Close()
	gw := mq.NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()

	// Passive sidecar, dialed through the gateway.
	wreg := NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m1.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], wreg)
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(dialTCP(t, addr, secret, "sa02b", "sb2a0")) }()

	// Party B server, also through the gateway.
	breg := NewRegistry()
	if err := breg.Publish(bModel(1, m1)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Data:     parts[1],
		Registry: breg,
		Workers:  []core.Transport{dialTCP(t, addr, secret, "sb2a0", "sa02b")},
		Batch:    BatcherConfig{MaxBatch: 32, MaxWait: time.Millisecond},
		Session:  "e2e-test",
		Broker:   broker,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const half = 600 // 1200 total, swap in the middle
	firePhase(t, ts, half, 1, want1)

	// Hot swap: workers learn the new version before B starts pinning it.
	if err := wreg.Publish(Model{Version: 2, Fragment: m2.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	if err := breg.Publish(bModel(2, m2)); err != nil {
		t.Fatal(err)
	}
	firePhase(t, ts, half, 2, want2)

	met := srv.Metrics()
	if met.Requests() < 2*half {
		t.Errorf("metrics saw %d requests, want >= %d", met.Requests(), 2*half)
	}
	if met.Batches() >= 2*half {
		t.Errorf("%d batches for %d requests — micro-batching never coalesced", met.Batches(), 2*half)
	}
	if met.Errors() != 0 {
		t.Errorf("%d request errors", met.Errors())
	}
	// Every single-row request left the batcher in a flush with a cause.
	var flushes int64
	for c := FlushCause(0); c < numFlushCauses; c++ {
		flushes += met.Flushes(c)
	}
	if sz := met.FlushSize(); flushes != sz.Count() || math.Round(sz.Mean()*float64(sz.Count())) != 2*half {
		t.Errorf("%d flushes by cause, %d sized, carrying %.0f rows; want one count and %d rows",
			flushes, sz.Count(), sz.Mean()*float64(sz.Count()), 2*half)
	}
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metricsz", nil))
	for _, line := range []string{`serve_batcher_flushes_total{cause="quiet"} `, `serve_batcher_flushes_total{cause="slot-freed"} `, "serve_batcher_flush_size_avg "} {
		if !strings.Contains(rec.Body.String(), line) {
			t.Errorf("/metricsz lacks %q", line)
		}
	}

	// The multi-row direct path answers in one round.
	body, _ := json.Marshal(scoreRequest{Rows: []int32{0, 1, 2}})
	resp, err := ts.Client().Post(ts.URL+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sr scoreResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Version != 2 || len(sr.Margins) != 3 {
		t.Fatalf("rows response: version %d, %d margins", sr.Version, len(sr.Margins))
	}
	for i, m := range sr.Margins {
		if math.Abs(m-want2[i]) > 1e-9 {
			t.Errorf("rows margin %d = %g, want %g", i, m, want2[i])
		}
	}

	// Observability endpoints.
	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil || hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, hr.Status)
	}
	hr.Body.Close()
	mr, err := ts.Client().Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	metricsText, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, want := range []string{
		"serve_requests_total", "serve_batches_total", "serve_qps",
		"serve_request_latency_ms", "serve_batch_size", "serve_model_version 2",
		"mq_topic_depth",
	} {
		if !strings.Contains(string(metricsText), want) {
			t.Errorf("metricsz missing %q:\n%s", want, metricsText)
		}
	}

	// Clean close: the sidecar acknowledges and its Run returns nil.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerDone:
		if err != nil {
			t.Fatalf("worker exited with %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not exit after session close")
	}
	if worker.Rounds() == 0 {
		t.Error("worker served no rounds")
	}
}

// gatedTransport blocks each Send until a token arrives, so a test can
// hold a response in flight.
type gatedTransport struct {
	core.Transport
	gate chan struct{}
}

func (g gatedTransport) Send(b []byte) error {
	<-g.gate
	return g.Transport.Send(b)
}

// TestHotSwapPinsInFlightBatch: a batch whose round is already in flight
// when a new version is published must finish on the version it pinned;
// the next batch scores on the new one.
func TestHotSwapPinsInFlightBatch(t *testing.T) {
	parts := twoParts(t, 120, 92)
	m1 := trainModel(t, parts, 2)
	m2 := trainModel(t, parts, 4)
	want1 := predictAll(t, m1, parts)
	want2 := predictAll(t, m2, parts)

	serverTr, workerTr := pipePair()
	gate := make(chan struct{}, 16)

	wreg := NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m1.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], wreg)
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(gatedTransport{Transport: workerTr, gate: gate}) }()

	breg := NewRegistry()
	if err := breg.Publish(bModel(1, m1)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Data:     parts[1],
		Registry: breg,
		Workers:  []core.Transport{serverTr},
		Session:  "swap-test",
	})
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // open ack
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}

	rows := []int32{0, 5, 17}
	type roundResult struct {
		margins []float64
		version uint64
		err     error
	}
	resCh := make(chan roundResult, 1)
	go func() {
		margins, version, err := srv.ScoreRows(rows)
		resCh <- roundResult{margins, version, err}
	}()

	// Wait until the worker has computed the round (its response is now
	// blocked on the gate) — the batch is genuinely in flight.
	deadline := time.Now().Add(5 * time.Second)
	for worker.Rounds() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("round never reached the worker")
		}
		time.Sleep(time.Millisecond)
	}

	// Hot swap while the round is in flight.
	if err := wreg.Publish(Model{Version: 2, Fragment: m2.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	if err := breg.Publish(bModel(2, m2)); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // release the in-flight response

	res := <-resCh
	if res.err != nil {
		t.Fatal(res.err)
	}
	if res.version != 1 {
		t.Fatalf("in-flight batch scored on version %d, want pinned version 1", res.version)
	}
	for k, r := range rows {
		if math.Abs(res.margins[k]-want1[r]) > 1e-12 {
			t.Errorf("in-flight row %d margin %g, want v1 margin %g", r, res.margins[k], want1[r])
		}
	}

	// The next batch pins the freshly-published version.
	gate <- struct{}{}
	margins, version, err := srv.ScoreRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	if version != 2 {
		t.Fatalf("post-swap batch scored on version %d, want 2", version)
	}
	for k, r := range rows {
		if math.Abs(margins[k]-want2[r]) > 1e-12 {
			t.Errorf("post-swap row %d margin %g, want v2 margin %g", r, margins[k], want2[r])
		}
	}

	gate <- struct{}{} // close ack
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
}

// TestWorkerStructuredErrorsKeepSession: per-round errors (unknown
// version, out-of-range row) are answered, not fatal — the session serves
// subsequent valid rounds.
func TestWorkerStructuredErrorsKeepSession(t *testing.T) {
	parts := twoParts(t, 80, 93)
	m1 := trainModel(t, parts, 2)

	serverTr, workerTr := pipePair()
	wreg := NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m1.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], wreg)
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(workerTr) }()

	l := core.NewLink(serverTr)
	if err := l.Send(core.MsgScoreOpen{Proto: core.ScoreProtoVersion, Session: "err-test"}); err != nil {
		t.Fatal(err)
	}
	msg, err := l.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if ack := msg.(core.MsgScoreOpenAck); ack.Error != "" || ack.Rows != 80 {
		t.Fatalf("open ack: %+v", ack)
	}

	// Round 1: unknown version → structured error.
	if err := l.Send(reachMsg(t, m1, 0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Send(core.MsgScoreRequest{Round: 1, Version: 99, Rows: []int32{0}}); err != nil {
		t.Fatal(err)
	}
	msg, _ = l.Recv()
	if resp := msg.(core.MsgScoreResponse); resp.Error == "" || resp.Round != 1 {
		t.Fatalf("unknown version answered %+v", resp)
	}

	// Round 2: out-of-range row → structured error.
	if err := l.Send(core.MsgScoreRequest{Round: 2, Version: 1, Rows: []int32{5000}}); err != nil {
		t.Fatal(err)
	}
	msg, _ = l.Recv()
	if resp := msg.(core.MsgScoreResponse); resp.Error == "" || resp.Round != 2 {
		t.Fatalf("out-of-range row answered %+v", resp)
	}

	// Round 3: valid — the session survived both errors.
	if err := l.Send(core.MsgScoreRequest{Round: 3, Version: 1, Rows: []int32{0, 1}}); err != nil {
		t.Fatal(err)
	}
	msg, _ = l.Recv()
	if resp := msg.(core.MsgScoreResponse); resp.Error != "" || resp.Round != 3 {
		t.Fatalf("valid round after errors answered %+v", resp)
	}
	if worker.RoundErrors() != 2 {
		t.Errorf("worker counted %d round errors, want 2", worker.RoundErrors())
	}

	// Clean close.
	if err := l.Send(core.MsgScoreClose{Reason: "test over"}); err != nil {
		t.Fatal(err)
	}
	if msg, _ = l.Recv(); msg == nil {
		t.Fatal("no close ack")
	}
	if _, ok := msg.(core.MsgScoreCloseAck); !ok {
		t.Fatalf("close answered %T", msg)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
}

// TestServerValidation covers wiring validation and the no-model path.
// TestRetryAfterQueueFromMeasuredRounds: a 429's Retry-After is the
// queue's drain time — ⌈queued/MaxBatch⌉ rounds, MaxInflight at a time,
// each the median measured round trip (the default Deadline before any
// round has run) — clamped to [1s, 30s].
func TestRetryAfterQueueFromMeasuredRounds(t *testing.T) {
	cfg := ServerConfig{Batch: BatcherConfig{MaxBatch: 64}}
	cfg.defaults() // Deadline 2s, MaxInflight 4
	met := NewMetrics()
	check := func(what string, queued int64, cfg ServerConfig, want int) {
		t.Helper()
		if got := retryAfterQueue(queued, cfg, met.WAN()); got != want {
			t.Errorf("%s: Retry-After %ds for %d queued, want %ds", what, got, queued, want)
		}
	}
	check("no rounds yet", 1024, cfg, 8) // 16 rounds × 2s / 4
	check("no rounds yet, one request", 1, cfg, 1)
	long := cfg
	long.Deadline = 30 * time.Second
	check("no rounds yet, long deadline", 1024, long, 30) // 120s, clamped

	for i := 0; i < 9; i++ {
		met.ObserveWAN(1200 * time.Millisecond) // the histogram's median reads 1228.8ms
	}
	check("measured rounds", 1024, cfg, 5) // 16 × 1.2288s / 4 = 4.9s
	check("measured rounds, 65 queued", 65, cfg, 1)
	serial := cfg
	serial.MaxInflight = 1
	check("measured rounds, one at a time", 1024, serial, 20) // 16 × 1.2288s = 19.7s
}

func TestServerValidation(t *testing.T) {
	parts := twoParts(t, 40, 94)
	reg := NewRegistry()
	if _, err := NewServer(ServerConfig{Registry: reg, Workers: []core.Transport{nil}}); err == nil {
		t.Error("server without data accepted")
	}
	if _, err := NewServer(ServerConfig{Data: parts[1], Workers: []core.Transport{nil}}); err == nil {
		t.Error("server without registry accepted")
	}
	if _, err := NewServer(ServerConfig{Data: parts[1], Registry: reg}); err == nil {
		t.Error("server without workers accepted")
	}
	serverTr, _ := pipePair()
	srv, err := NewServer(ServerConfig{Data: parts[1], Registry: reg, Workers: []core.Transport{serverTr}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := srv.ScoreRows([]int32{0}); err != ErrNoModel {
		t.Errorf("empty registry ScoreRows = %v, want ErrNoModel", err)
	}
}

// TestWorkerRunLoopSurvivesPeerRestarts: RunLoop must serve a fresh
// session after each peer departure, and give up only when the dial
// itself keeps failing — after clock.MaxFails dials, the production retry
// schedule waited out on a fake clock.
func TestWorkerRunLoopSurvivesPeerRestarts(t *testing.T) {
	parts := twoParts(t, 40, 91)
	m := trainModel(t, parts, 2)
	reg := NewRegistry()
	if err := reg.Publish(Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], reg)
	fk := clock.NewFake()
	worker.clock = fk
	start := fk.Now()

	const sessions = 2
	serverEnds := make(chan core.Transport, sessions)
	var dials int
	dial := func() (core.Transport, error) {
		dials++
		if dials > sessions {
			return nil, fmt.Errorf("gateway down")
		}
		s, w := pipePair()
		serverEnds <- s
		return w, nil
	}

	loopDone := make(chan error, 1)
	go fk.Drive(func() { loopDone <- worker.RunLoop(dial) })

	// Two successive "Party B" lifetimes, each opening and closing its own
	// session with one scoring round in between.
	for s := 0; s < sessions; s++ {
		l := core.NewLink(<-serverEnds)
		if err := l.Send(core.MsgScoreOpen{Proto: core.ScoreProtoVersion, Session: fmt.Sprintf("s%d", s)}); err != nil {
			t.Fatal(err)
		}
		if msg, err := l.Recv(); err != nil {
			t.Fatal(err)
		} else if _, ok := msg.(core.MsgScoreOpenAck); !ok {
			t.Fatalf("session %d: got %T, want open ack", s, msg)
		}
		if err := l.Send(reachMsg(t, m, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := l.Send(core.MsgScoreRequest{Round: uint64(s), Version: 1, Rows: []int32{0, 1}}); err != nil {
			t.Fatal(err)
		}
		if msg, err := l.Recv(); err != nil {
			t.Fatal(err)
		} else if r, ok := msg.(core.MsgScoreResponse); !ok || r.Error != "" {
			t.Fatalf("session %d: round answer %#v", s, msg)
		}
		if err := l.Send(core.MsgScoreClose{Reason: "restart"}); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Recv(); err != nil {
			t.Fatal(err)
		}
	}

	// With the gateway "down", the loop must exhaust its redials and stop.
	select {
	case err := <-loopDone:
		if err == nil {
			t.Fatal("RunLoop returned nil although every dial failed")
		}
	case <-time.After(failsafe):
		t.Fatal("RunLoop did not give up after exhausting redials")
	}
	if got := worker.Rounds(); got != sessions {
		t.Errorf("worker served %d rounds across restarts, want %d", got, sessions)
	}
	if dials != sessions+clock.MaxFails {
		t.Errorf("RunLoop dialed %d times, want %d sessions and %d failures", dials, sessions, clock.MaxFails)
	}
	// 19 waits: 0.2, 0.4, 0.8, 1.6 and 3.2 s, then 5 s fourteen times,
	// each within ±20 %.
	if waited := fk.Now().Sub(start); waited < 60*time.Second || waited > 90*time.Second {
		t.Errorf("RunLoop waited %v of virtual time between failed dials, want about 76 s", waited)
	}
}
