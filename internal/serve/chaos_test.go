package serve

// Chaos tests for the hardened scoring path: transports wrapped in
// internal/fault (drop / delay / hard-cut), stalled links, and overload
// bursts. The invariant under test everywhere: a /score request resolves
// within its deadline as success, shed, or partial — never a hang.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/fault"
)

// closableEnd is an in-memory Transport like pipeEnd, but severable: Close
// on either end unblocks both directions with io.EOF. The server's
// markDead path and the worker's session teardown both need that.
type closableEnd struct {
	send chan<- []byte
	recv <-chan []byte
	done chan struct{}
	once *sync.Once
}

func (c closableEnd) Send(b []byte) error {
	select {
	case <-c.done:
		return io.EOF
	default:
	}
	select {
	case c.send <- append([]byte(nil), b...):
		return nil
	case <-c.done:
		return io.EOF
	}
}

func (c closableEnd) Receive() ([]byte, error) {
	select {
	case b := <-c.recv:
		return b, nil
	case <-c.done:
		return nil, io.EOF
	}
}

func (c closableEnd) Close() error {
	c.once.Do(func() { close(c.done) })
	return nil
}

func closablePair() (core.Transport, core.Transport) {
	a2b := make(chan []byte, 16)
	b2a := make(chan []byte, 16)
	done := make(chan struct{})
	once := &sync.Once{}
	return closableEnd{send: a2b, recv: b2a, done: done, once: once},
		closableEnd{send: b2a, recv: a2b, done: done, once: once}
}

// stallTransport black-holes Sends while stalled: the bytes vanish in the
// WAN, the link itself stays "up" — the shape of a stalled peer, as
// opposed to a cut one.
type stallTransport struct {
	core.Transport
	stalled atomic.Bool
}

func (s *stallTransport) Send(b []byte) error {
	if s.stalled.Load() {
		return nil
	}
	return s.Transport.Send(b)
}

// expectPartial scores the rows expecting a degraded answer missing
// party 0, and checks the partial margins against the B-only routing.
func expectPartial(t *testing.T, res BatchResult, err error, want []float64) {
	t.Helper()
	if err != nil {
		t.Fatalf("degraded round failed instead of serving partial: %v", err)
	}
	if len(res.Missing) != 1 || res.Missing[0] != 0 {
		t.Fatalf("degraded round Missing = %v, want [0]", res.Missing)
	}
	for i, m := range res.Margins {
		if math.Abs(m-want[i]) > 1e-9 {
			t.Fatalf("partial margin[%d] = %g, want %g", i, m, want[i])
		}
	}
}

// TestServeBreakerTimeoutTripAndRecover: a stalled (black-holing) worker
// link times out rounds until consecutive timeouts open the breaker;
// while open, ServePartial answers degraded without waiting out the
// budget; after the stall clears and the cooldown elapses, one probe
// round closes the circuit and full-fidelity margins resume.
func TestServeBreakerTimeoutTripAndRecover(t *testing.T) {
	parts := twoParts(t, 64, 1)
	m := trainModel(t, parts, 6)
	want := predictAll(t, m, parts)
	rows := []int32{0, 1, 2, 3, 4, 5, 6, 7}

	serverTr, workerTr := pipePair()
	st := &stallTransport{Transport: serverTr}

	wreg := NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], wreg)
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(workerTr) }()

	breg := NewRegistry()
	if err := breg.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Data:     parts[1],
		Registry: breg,
		Workers:  []core.Transport{st},
		Policy:   ServePartial,
		Breaker:  BreakerConfig{ConsecTimeouts: 2, Cooldown: 250 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}

	// Healthy round: full-fidelity margins.
	margins, _, err := srv.ScoreRows(rows)
	if err != nil {
		t.Fatal(err)
	}
	for i, mg := range margins {
		if math.Abs(mg-want[rows[i]]) > 1e-9 {
			t.Fatalf("healthy margin[%d] = %g, want %g", i, mg, want[rows[i]])
		}
	}

	// The partial expectation: B's trees only, party 0's skipped.
	wantPartial, skipped, err := core.RoutePartialMargins(
		m.Parties[1], m.LearningRate, m.BaseScore, parts[1], rows,
		map[core.RouteKey][]byte{}, map[int]bool{0: true})
	if err != nil {
		t.Fatal(err)
	}
	if skipped == 0 {
		t.Fatal("test model has no party-0 trees; degraded mode would be invisible")
	}

	// Stall the link: two timed-out rounds trip the breaker.
	st.stalled.Store(true)
	for i := 0; i < 2; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		res, err := srv.ScoreBatch(ctx, rows)
		cancel()
		expectPartial(t, res, err, wantPartial)
	}
	if got := srv.Breaker(0).State(); got != BreakerOpen {
		t.Fatalf("breaker state after 2 timed-out rounds = %v, want open", got)
	}
	if srv.Metrics().Timeouts() < 2 {
		t.Errorf("timeouts counter = %d, want >= 2", srv.Metrics().Timeouts())
	}

	// While open, the degraded answer must come back without burning the
	// budget on a link the breaker already condemned.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	res, err := srv.ScoreBatch(ctx, rows)
	cancel()
	expectPartial(t, res, err, wantPartial)
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Errorf("open-breaker round took %v; it must skip the WAN wait", elapsed)
	}

	// Heal the link, wait out the cooldown: the next round is the probe.
	st.stalled.Store(false)
	time.Sleep(300 * time.Millisecond)
	ctx, cancel = context.WithTimeout(context.Background(), time.Second)
	res, err = srv.ScoreBatch(ctx, rows)
	cancel()
	if err != nil {
		t.Fatalf("probe round failed: %v", err)
	}
	if len(res.Missing) != 0 {
		t.Fatalf("probe round still degraded: missing %v", res.Missing)
	}
	for i, mg := range res.Margins {
		if math.Abs(mg-want[rows[i]]) > 1e-9 {
			t.Fatalf("recovered margin[%d] = %g, want %g", i, mg, want[rows[i]])
		}
	}
	if got := srv.Breaker(0).State(); got != BreakerClosed {
		t.Errorf("breaker state after probe success = %v, want closed", got)
	}
	if got := srv.Breaker(0).Opens(); got != 1 {
		t.Errorf("breaker opens = %d, want 1", got)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
}

// TestServeHardCutRedialRecovery: a hard-cut link (fault.Config
// DisconnectAfter) fails rounds under FailClosed until the failure rate
// opens the breaker; once the peer is back, the cooldown probe re-dials
// through the configured dialer, redoes the session handshake, and
// full-fidelity scoring resumes.
func TestServeHardCutRedialRecovery(t *testing.T) {
	parts := twoParts(t, 64, 2)
	m := trainModel(t, parts, 6)
	want := predictAll(t, m, parts)
	rows := []int32{0, 1, 2, 3}

	wreg := NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], wreg)

	// Session 1: cut after 4 sends (open, the version's reach links and
	// two rounds; the third round's request hits the severed link).
	srvEnd, wkEnd := closablePair()
	cut := fault.Wrap(srvEnd, fault.Config{Seed: 1, DisconnectAfter: 4})
	go worker.Run(wkEnd)

	// The dialer only answers once the test "heals" the peer.
	healed := make(chan core.Transport, 1)
	dial := func() (core.Transport, error) {
		select {
		case tr := <-healed:
			return tr, nil
		default:
			return nil, errors.New("peer down")
		}
	}

	breg := NewRegistry()
	if err := breg.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Data:     parts[1],
		Registry: breg,
		Workers:  []core.Transport{cut},
		Dialers:  []func() (core.Transport, error){dial},
		Breaker:  BreakerConfig{Window: 4, FailureRate: 0.5, MinSamples: 2, Cooldown: 600 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}

	// Two healthy rounds ride the link before the cut.
	for round := 0; round < 2; round++ {
		margins, _, err := srv.ScoreRows(rows)
		if err != nil {
			t.Fatalf("pre-cut round %d: %v", round, err)
		}
		for i, mg := range margins {
			if math.Abs(mg-want[rows[i]]) > 1e-9 {
				t.Fatalf("pre-cut margin[%d] = %g, want %g", i, mg, want[rows[i]])
			}
		}
	}

	// Round 3 hits the cut: send fails, the re-dial fails, FailClosed
	// refuses. Round 4 fails the same way and tips the failure rate over
	// the threshold.
	for round := 0; round < 2; round++ {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		_, err := srv.ScoreBatch(ctx, rows)
		cancel()
		if !errors.Is(err, ErrPartyUnavailable) {
			t.Fatalf("post-cut round %d error = %v, want ErrPartyUnavailable", round, err)
		}
	}
	if got := srv.Breaker(0).State(); got != BreakerOpen {
		t.Fatalf("breaker state after failure-rate trip = %v, want open", got)
	}

	// While open (and still in cooldown): refused fast, no dial attempted.
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	_, err = srv.ScoreBatch(ctx, rows)
	cancel()
	if !errors.Is(err, ErrPartyUnavailable) {
		t.Fatalf("open-breaker round error = %v, want ErrPartyUnavailable", err)
	}
	if elapsed := time.Since(start); elapsed > 400*time.Millisecond {
		t.Errorf("open-breaker refusal took %v; it must not wait on the WAN", elapsed)
	}

	// Heal: a fresh pair behind the dialer, the worker serving its end.
	srvEnd2, wkEnd2 := closablePair()
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(wkEnd2) }()
	healed <- srvEnd2
	time.Sleep(700 * time.Millisecond) // let the cooldown elapse

	// The probe round re-dials, re-opens the session, and recovers.
	margins, _, err := srv.ScoreRows(rows)
	if err != nil {
		t.Fatalf("probe round after heal: %v", err)
	}
	for i, mg := range margins {
		if math.Abs(mg-want[rows[i]]) > 1e-9 {
			t.Fatalf("recovered margin[%d] = %g, want %g", i, mg, want[rows[i]])
		}
	}
	if got := srv.Breaker(0).State(); got != BreakerClosed {
		t.Errorf("breaker state after recovery = %v, want closed", got)
	}
	if got := srv.Breaker(0).Opens(); got != 1 {
		t.Errorf("breaker opens = %d, want 1", got)
	}
	if srv.Metrics().Retries() < 1 {
		t.Errorf("retries counter = %d, want >= 1 (the probe re-dial)", srv.Metrics().Retries())
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
}

// switchTransport routes Sends through one of three personalities the
// test flips at runtime: clean passthrough, a lossy/laggy fault link, or
// a total black hole. Receives always pass through (the fault layer
// models the B→A direction).
type switchTransport struct {
	inner core.Transport
	mild  core.Transport
	hole  core.Transport
	mode  atomic.Int32 // 0 clean, 1 mild, 2 black hole
}

func newSwitchTransport(t *testing.T, inner core.Transport) *switchTransport {
	t.Helper()
	mildCfg, err := fault.ParseSpec("seed=7,drop=0.3,delay=0.5,delayfor=2ms")
	if err != nil {
		t.Fatal(err)
	}
	holeCfg, err := fault.ParseSpec("seed=11,drop=1")
	if err != nil {
		t.Fatal(err)
	}
	return &switchTransport{
		inner: inner,
		mild:  fault.Wrap(inner, mildCfg),
		hole:  fault.Wrap(inner, holeCfg),
	}
}

func (s *switchTransport) Send(b []byte) error {
	switch s.mode.Load() {
	case 1:
		return s.mild.Send(b)
	case 2:
		return s.hole.Send(b)
	default:
		return s.inner.Send(b)
	}
}

func (s *switchTransport) Receive() ([]byte, error) { return s.inner.Receive() }

// postRow posts one single-row score request with an explicit deadline
// header and returns the status, decoded body, and elapsed wall time.
func postRow(client *http.Client, url string, row int32, deadline string) (int, scoreResponse, time.Duration, error) {
	body, _ := json.Marshal(scoreRequest{Row: &row})
	req, err := http.NewRequest(http.MethodPost, url+"/score", bytes.NewReader(body))
	if err != nil {
		return 0, scoreResponse{}, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if deadline != "" {
		req.Header.Set(DeadlineHeader, deadline)
	}
	start := time.Now()
	resp, err := client.Do(req)
	elapsed := time.Since(start)
	if err != nil {
		return 0, scoreResponse{}, elapsed, err
	}
	defer resp.Body.Close()
	var sr scoreResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			return resp.StatusCode, scoreResponse{}, elapsed, err
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, sr, elapsed, nil
}

// getBody fetches a path off the test server and returns status + body.
func getBody(t *testing.T, client *http.Client, url, path string) (int, string) {
	t.Helper()
	resp, err := client.Get(url + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, string(b)
}

// metricValue extracts an integer metric from a /metricsz dump.
func metricValue(t *testing.T, body, name string) int64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in /metricsz output", name)
	return 0
}

// TestServeChaosHTTPNeverHangs drives the full HTTP path through fault
// phases — clean, lossy, black-holed, healed — and asserts the hardening
// contract: every request resolves within its budget as success, shed,
// or partial (200/429/503/504), the breaker trips and recovers, and
// /metricsz accounts for all of it.
func TestServeChaosHTTPNeverHangs(t *testing.T) {
	parts := twoParts(t, 64, 3)
	m := trainModel(t, parts, 6)
	want := predictAll(t, m, parts)

	serverTr, workerTr := pipePair()
	sw := newSwitchTransport(t, serverTr)

	wreg := NewRegistry()
	if err := wreg.Publish(Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		t.Fatal(err)
	}
	worker := NewPassiveWorker(0, parts[0], wreg)
	workerDone := make(chan error, 1)
	go func() { workerDone <- worker.Run(workerTr) }()

	breg := NewRegistry()
	if err := breg.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Data:     parts[1],
		Registry: breg,
		Workers:  []core.Transport{sw},
		Policy:   ServePartial,
		Batch:    BatcherConfig{MaxBatch: 8, MaxWait: time.Millisecond, MaxQueue: 4},
		Deadline: 500 * time.Millisecond,
		Breaker:  BreakerConfig{ConsecTimeouts: 2, Cooldown: 300 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Timeout: 10 * time.Second}

	// A request must never outlive its budget by more than the batching
	// and scheduling slack; 3s is a very generous bound for a 150ms
	// budget, and any real hang trips it.
	const bound = 3 * time.Second
	checkBounded := func(phase string, elapsed time.Duration) {
		t.Helper()
		if elapsed > bound {
			t.Fatalf("%s: request took %v — the no-hang contract is broken", phase, elapsed)
		}
	}

	if code, body := getBody(t, client, ts.URL, "/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Fatalf("healthy /readyz = %d %q, want 200 ok", code, body)
	}

	// Phase 1 — clean: full-fidelity margins.
	for i := 0; i < 10; i++ {
		row := int32(i % len(want))
		code, sr, elapsed, err := postRow(client, ts.URL, row, "")
		if err != nil || code != http.StatusOK {
			t.Fatalf("clean phase: row %d → %d, %v", row, code, err)
		}
		checkBounded("clean", elapsed)
		if sr.Partial || sr.Margin == nil || math.Abs(*sr.Margin-want[row]) > 1e-9 {
			t.Fatalf("clean phase: row %d margin %v (partial=%v), want %g", row, sr.Margin, sr.Partial, want[row])
		}
	}

	// Phase 2 — lossy and laggy: every outcome in the contract is legal,
	// hanging is not.
	sw.mode.Store(1)
	for i := 0; i < 15; i++ {
		row := int32(i % len(want))
		code, _, elapsed, err := postRow(client, ts.URL, row, "150ms")
		if err != nil {
			t.Fatalf("lossy phase: row %d: %v", row, err)
		}
		checkBounded("lossy", elapsed)
		switch code {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		default:
			t.Fatalf("lossy phase: row %d → unexpected status %d", row, code)
		}
	}

	// Phase 3 — black hole + burst: concurrent chains overload the bounded
	// queue (shed), time out rounds (breaker trips), then ride degraded
	// serving.
	sw.mode.Store(2)
	var wg sync.WaitGroup
	for c := 0; c < 12; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				row := int32((c + i) % len(want))
				code, _, elapsed, err := postRow(client, ts.URL, row, "150ms")
				if err != nil {
					t.Errorf("burst chain %d: %v", c, err)
					return
				}
				checkBounded("burst", elapsed)
				switch code {
				case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
				default:
					t.Errorf("burst chain %d → unexpected status %d", c, code)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	// Deterministic tail: sequential requests against the black hole must
	// settle into fast degraded 200s once the breaker is open (any that
	// arrive before the trip time out and feed it).
	sawPartial := false
	for i := 0; i < 20 && !sawPartial; i++ {
		code, sr, elapsed, err := postRow(client, ts.URL, 0, "150ms")
		if err != nil {
			t.Fatal(err)
		}
		checkBounded("degraded", elapsed)
		if code == http.StatusOK && sr.Partial {
			if len(sr.Missing) != 1 || sr.Missing[0] != 0 {
				t.Fatalf("degraded response missing = %v, want [0]", sr.Missing)
			}
			sawPartial = true
		}
	}
	if !sawPartial {
		t.Fatal("black-hole phase never produced a degraded 200")
	}
	if code, body := getBody(t, client, ts.URL, "/readyz"); code != http.StatusOK || !strings.Contains(body, "degraded") {
		t.Errorf("/readyz with open breaker under ServePartial = %d %q, want 200 degraded", code, body)
	}
	if code, _ := getBody(t, client, ts.URL, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz during degradation = %d, want 200 (liveness is not readiness)", code)
	}

	// Phase 4 — heal: after the cooldown a probe round closes the breaker
	// and full-fidelity serving returns.
	sw.mode.Store(0)
	recovered := false
	for i := 0; i < 80 && !recovered; i++ {
		code, sr, elapsed, err := postRow(client, ts.URL, 0, "500ms")
		if err != nil {
			t.Fatal(err)
		}
		checkBounded("heal", elapsed)
		if code == http.StatusOK && !sr.Partial && sr.Margin != nil && math.Abs(*sr.Margin-want[0]) < 1e-9 {
			recovered = true
		}
		if !recovered {
			time.Sleep(50 * time.Millisecond)
		}
	}
	if !recovered {
		t.Fatal("server never recovered full-fidelity serving after the link healed")
	}
	if code, body := getBody(t, client, ts.URL, "/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ok\n") {
		t.Errorf("healed /readyz = %d %q, want plain ok", code, body)
	}

	// The ledger: every failure mode the chaos run exercised is counted.
	code, metrics := getBody(t, client, ts.URL, "/metricsz")
	if code != http.StatusOK {
		t.Fatalf("/metricsz = %d", code)
	}
	if v := metricValue(t, metrics, "serve_shed_total"); v == 0 {
		t.Error("serve_shed_total = 0, want > 0 after the burst")
	}
	if v := metricValue(t, metrics, "serve_timeouts_total"); v == 0 {
		t.Error("serve_timeouts_total = 0, want > 0 after the black hole")
	}
	if v := metricValue(t, metrics, "serve_degraded_total"); v == 0 {
		t.Error("serve_degraded_total = 0, want > 0 after degraded serving")
	}
	if !strings.Contains(metrics, `serve_breaker_state{party="0"`) {
		t.Error("/metricsz does not report breaker state")
	}
	var opens int64
	if _, err := fmt.Sscanf(findLine(metrics, `serve_breaker_opens_total{party="0"}`), `serve_breaker_opens_total{party="0"} %d`, &opens); err != nil || opens < 1 {
		t.Errorf("serve_breaker_opens_total = %d (%v), want >= 1", opens, err)
	}

	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
}

// findLine returns the first line of body starting with prefix.
func findLine(body, prefix string) string {
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	return ""
}

// TestReadyzGates: /readyz refuses until a model is published and the
// scoring session is open, then reflects worker health per the degraded
// policy; /healthz stays a pure liveness check throughout.
func TestReadyzGates(t *testing.T) {
	parts := twoParts(t, 32, 4)
	m := trainModel(t, parts, 4)

	get := func(srv *Server, path string) (int, string) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}

	build := func(policy DegradedPolicy) (*Server, *Registry, chan error) {
		serverTr, workerTr := pipePair()
		wreg := NewRegistry()
		if err := wreg.Publish(Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
			t.Fatal(err)
		}
		worker := NewPassiveWorker(0, parts[0], wreg)
		done := make(chan error, 1)
		go func() { done <- worker.Run(workerTr) }()
		breg := NewRegistry()
		srv, err := NewServer(ServerConfig{Data: parts[1], Registry: breg, Workers: []core.Transport{serverTr}, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		return srv, breg, done
	}

	srv, breg, workerDone := build(ServePartial)
	if code, _ := get(srv, "/healthz"); code != http.StatusOK {
		t.Errorf("/healthz before readiness = %d, want 200", code)
	}
	if code, body := get(srv, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "no model") {
		t.Errorf("/readyz without model = %d %q, want 503 no model", code, body)
	}
	if err := breg.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}
	if code, body := get(srv, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "session") {
		t.Errorf("/readyz without session = %d %q, want 503 session not open", code, body)
	}
	if err := srv.Open(); err != nil {
		t.Fatal(err)
	}
	if code, body := get(srv, "/readyz"); code != http.StatusOK || !strings.HasPrefix(body, "ok") {
		t.Errorf("/readyz when serving = %d %q, want 200 ok", code, body)
	}
	// A downed worker under ServePartial: still ready, flagged degraded.
	srv.workers[0].alive.Store(false)
	if code, body := get(srv, "/readyz"); code != http.StatusOK || !strings.Contains(body, "degraded") {
		t.Errorf("/readyz degraded = %d %q, want 200 degraded", code, body)
	}
	srv.workers[0].alive.Store(true)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone; err != nil {
		t.Fatal(err)
	}
	if code, _ := get(srv, "/healthz"); code != http.StatusServiceUnavailable {
		t.Errorf("/healthz after Close = %d, want 503", code)
	}

	// The same downed worker under FailClosed makes the server not ready.
	srv2, breg2, workerDone2 := build(FailClosed)
	if err := breg2.Publish(bModel(1, m)); err != nil {
		t.Fatal(err)
	}
	if err := srv2.Open(); err != nil {
		t.Fatal(err)
	}
	srv2.workers[0].alive.Store(false)
	if code, body := get(srv2, "/readyz"); code != http.StatusServiceUnavailable || !strings.Contains(body, "unavailable") {
		t.Errorf("/readyz failclosed degraded = %d %q, want 503 unavailable", code, body)
	}
	srv2.workers[0].alive.Store(true)
	if err := srv2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-workerDone2; err != nil {
		t.Fatal(err)
	}
}
