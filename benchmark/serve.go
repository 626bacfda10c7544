package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	stdlog "log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/mq"
	"vf2boost/internal/serve"
	"vf2boost/internal/trace"
)

// marginTolerance is how far a served margin may sit from
// FederatedModel.PredictAll's before the reply counts as failed.
const marginTolerance = 1e-9

// gatewayLink is a core.Transport over the mq TCP gateway: one producer
// and one consumer connection, as cmd/vf2boost dials them.
type gatewayLink struct {
	prod *mq.RemoteProducer
	cons *mq.RemoteConsumer
}

func (g gatewayLink) Send(b []byte) error      { return g.prod.Send(b) }
func (g gatewayLink) Receive() ([]byte, error) { return g.cons.Receive() }
func (g gatewayLink) Close() error {
	g.prod.Close()
	return g.cons.Close()
}

func dialGateway(addr string, secret []byte, sendTopic, recvTopic string) (gatewayLink, error) {
	prod, err := mq.DialProducer(addr, sendTopic, mq.Token(secret, sendTopic))
	if err != nil {
		return gatewayLink{}, err
	}
	cons, err := mq.DialConsumer(addr, recvTopic, mq.Token(secret, recvTopic))
	if err != nil {
		prod.Close()
		return gatewayLink{}, err
	}
	return gatewayLink{prod, cons}, nil
}

// serveInputs is the scoring universe and the model served over it.
type serveInputs struct {
	parts []*dataset.Dataset
	model *core.FederatedModel
	want  []float64 // FederatedModel.PredictAll margins, the check's truth
}

// setupServe generates the scoring universe and mock-trains the model.
func setupServe(spec serveSpec, seed int64, log *spanLog) (*serveInputs, error) {
	in := &serveInputs{}
	err := log.do("setup", "generate rows", func() error {
		d, err := newSynth(spec.Rows, spec.FeatA, spec.FeatB, 1, seed).materialize(spec.Rows)
		if err != nil {
			return err
		}
		in.parts, err = d.VerticalSplit([]int{spec.FeatA, spec.FeatB}, 1)
		return err
	})
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Scheme = core.SchemeMock
	cfg.Trees = spec.Trees
	cfg.MaxDepth = spec.Depth
	cfg.Seed = seed
	err = log.do("setup", "mock-train served model", func() error {
		sess, err := core.NewSession(in.parts, cfg)
		if err != nil {
			return err
		}
		in.model, err = sess.Train()
		return err
	})
	return in, err
}

// caller is one closed-loop client: it sends its next request only after
// the previous reply arrived, and keeps its own latency sample.
type caller struct {
	latMS     []float64
	rows      int
	attempted int
	failed    int
	firstErr  error
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

// serveStack is the running deployment: shaped broker, TCP gateway,
// passive sidecar and Party B's server, each end dialed through the
// gateway on loopback.
type serveStack struct {
	broker     *mq.Broker
	gw         *mq.Gateway
	worker     *serve.PassiveWorker
	workerDone chan error
	srv        *serve.Server
	shaper     *mq.Shaper
}

func startServe(spec serveSpec, in *serveInputs, rec *trace.Recorder) (*serveStack, error) {
	secret := []byte("bench-serve")
	st := &serveStack{shaper: mq.NewShaper(spec.WANMbps, spec.WANLatency)}
	st.shaper.SetPerMessageOverhead(mq.FrameOverhead)
	st.broker = mq.NewBroker(mq.WithAuth(secret), mq.WithShaper(st.shaper))
	st.gw = mq.NewGateway(st.broker)
	addr, err := st.gw.Listen("127.0.0.1:0")
	if err != nil {
		st.broker.Close()
		return nil, err
	}

	wreg, breg := serve.NewRegistry(), serve.NewRegistry()
	if err := wreg.Publish(serve.Model{Version: 1, Fragment: in.model.Parties[0]}); err != nil {
		return nil, err
	}
	if err := breg.Publish(serve.Model{Version: 1, Fragment: in.model.Parties[1],
		LearningRate: in.model.LearningRate, BaseScore: in.model.BaseScore}); err != nil {
		return nil, err
	}
	st.worker = serve.NewPassiveWorker(0, in.parts[0], wreg)
	st.worker.Trace = rec
	st.worker.Logger = stdlog.New(io.Discard, "", 0)
	workerLink, err := dialGateway(addr, secret, "sa02b", "sb2a0")
	if err != nil {
		return nil, err
	}
	st.workerDone = make(chan error, 1)
	go func() {
		st.workerDone <- st.worker.Run(workerLink)
		workerLink.Close()
	}()

	serverLink, err := dialGateway(addr, secret, "sb2a0", "sa02b")
	if err != nil {
		return nil, err
	}
	st.srv, err = serve.NewServer(serve.ServerConfig{
		Data: in.parts[1], Registry: breg, Workers: []core.Transport{serverLink},
		Session: "benchmark", Broker: st.broker, Trace: rec,
	})
	if err != nil {
		return nil, err
	}
	return st, st.srv.Open()
}

// stop closes the session and waits for every goroutine the stack
// started.
func (st *serveStack) stop() error {
	err := st.srv.Close()
	select {
	case werr := <-st.workerDone:
		if err == nil {
			err = werr
		}
	case <-time.After(5 * time.Second):
		if err == nil {
			err = fmt.Errorf("passive worker did not exit after session close")
		}
	}
	st.gw.Close()
	st.broker.Close()
	return err
}

// runLoad drives the closed-loop traffic mix for d: spec.Callers
// goroutines each looping single-row ScoreRow on seeded random rows, plus
// one looping spec.BulkRows-row ScoreBatch. Every reply is checked
// against the reference margins.
func runLoad(st *serveStack, spec serveSpec, in *serveInputs, seed int64, d time.Duration) (singles []*caller, bulk *caller) {
	var stopFlag atomic.Bool
	var wg sync.WaitGroup
	singles = make([]*caller, spec.Callers)
	for i := range singles {
		c := &caller{}
		singles[i] = c
		rng := rand.New(rand.NewSource(seed*1000 + int64(i)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stopFlag.Load() {
				row := int32(rng.Intn(spec.Rows))
				start := time.Now()
				res, err := st.srv.ScoreRow(context.Background(), row)
				lat := time.Since(start)
				c.attempted++
				switch {
				case err != nil:
					c.fail(err)
				case res.Partial():
					c.fail(fmt.Errorf("partial margin for row %d", row))
				case math.Abs(res.Margin-in.want[row]) > marginTolerance:
					c.fail(fmt.Errorf("row %d margin %g, want %g", row, res.Margin, in.want[row]))
				default:
					c.rows++
					c.latMS = append(c.latMS, lat.Seconds()*1e3)
				}
			}
		}()
	}
	bulk = &caller{}
	rng := rand.New(rand.NewSource(seed*1000 + 999))
	wg.Add(1)
	go func() {
		defer wg.Done()
		rows := make([]int32, spec.BulkRows)
		for !stopFlag.Load() {
			for i := range rows {
				rows[i] = int32(rng.Intn(spec.Rows))
			}
			start := time.Now()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			res, err := st.srv.ScoreBatch(ctx, rows)
			cancel()
			lat := time.Since(start)
			bulk.attempted++
			if err == nil && (len(res.Missing) > 0 || len(res.Margins) != len(rows)) {
				err = fmt.Errorf("bulk round answered %d of %d rows, missing parties %v", len(res.Margins), len(rows), res.Missing)
			}
			for i := 0; err == nil && i < len(rows); i++ {
				if math.Abs(res.Margins[i]-in.want[rows[i]]) > marginTolerance {
					err = fmt.Errorf("bulk row %d margin %g, want %g", rows[i], res.Margins[i], in.want[rows[i]])
				}
			}
			if err != nil {
				bulk.fail(err)
				continue
			}
			bulk.rows += len(rows)
			bulk.latMS = append(bulk.latMS, lat.Seconds()*1e3)
		}
	}()
	time.Sleep(d)
	stopFlag.Store(true)
	wg.Wait()
	return singles, bulk
}

// runServe is one run of the scoring workload: repeated set-up (data and
// model), reference margins, warm-up, then the measured closed loop.
func runServe(rc runConfig, spec serveSpec, log *spanLog) (*measurement, error) {
	var in *serveInputs
	var setupS []float64
	for rep := 0; rep < setupReps; rep++ {
		start := time.Now()
		next, err := setupServe(spec, rc.Seed, log)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		in = next
	}
	err := log.do("reference", "FederatedModel.PredictAll", func() (err error) {
		in.want, err = in.model.PredictAll(in.parts)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reference margins: %w", err)
	}

	var rec *trace.Recorder
	if rc.Trace {
		rec = trace.NewRecorder()
	}
	recStart := time.Now()
	st, err := startServe(spec, in, rec)
	if err != nil {
		return nil, fmt.Errorf("starting the serving stack: %w", err)
	}

	freshHeap()
	_, endWarm := log.begin("bench", "warm-up", -1)
	runLoad(st, spec, in, rc.Seed+1, spec.Warmup)
	endWarm()

	var heap *heapWatch
	if rc.Trace {
		heap = startHeapWatch()
	}
	met := st.srv.Metrics()
	batchesBefore, roundsBefore := met.Batches(), st.worker.Rounds()
	bytesBefore, msgsBefore := st.broker.BytesSent(), st.broker.MessagesSent()
	blockedBefore := st.shaper.BlockedTime()
	loadID, endLoad := log.begin("bench", "closed-loop load", -1)
	begin := time.Now()
	singles, bulk := runLoad(st, spec, in, rc.Seed, time.Duration(rc.Seconds*float64(time.Second)))
	elapsed := time.Since(begin).Seconds()
	endLoad()
	bytes := st.broker.BytesSent() - bytesBefore
	msgs := st.broker.MessagesSent() - msgsBefore
	rounds := met.Batches() - batchesBefore

	m := &measurement{attempted: bulk.attempted, failed: bulk.failed}
	var lat []float64
	singleRows := 0
	firstErr := bulk.firstErr
	for _, c := range singles {
		m.attempted += c.attempted
		m.failed += c.failed
		singleRows += c.rows
		lat = append(lat, c.latMS...)
		if firstErr == nil {
			firstErr = c.firstErr
		}
	}

	layers := map[string]float64{}
	if rc.Trace {
		layers["serve.http_us_per_req"] = probeHTTP(st.srv, spec, log, m)
	}
	if err := st.stop(); err != nil {
		m.attempted++
		m.failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	log.adopt(rec, recStart, loadID)
	if firstErr != nil {
		m.notef("FAILED: %v", firstErr)
	}
	if singleRows == 0 || bulk.rows == 0 {
		return m, nil
	}

	rows := float64(singleRows + bulk.rows)
	tailMS, tailP := tail(lat)
	m.endToEnd = map[string]float64{
		"setup_s":            median(setupS),
		"op_p50_ms":          median(lat),
		"op_tail_ms":         tailMS,
		"rows_per_s":         rows / elapsed,
		"wire_bytes_per_row": float64(bytes) / rows,
	}
	m.notef("%d callers + 1 bulk x %d rows for %.2fs: single %.0f rows/s p50 %.2f ms p%.0f %.2f ms (%d samples); bulk %.0f rows/s; %d rounds",
		spec.Callers, spec.BulkRows, elapsed, float64(singleRows)/elapsed, median(lat), tailP, tailMS, len(lat),
		float64(bulk.rows)/elapsed, rounds)

	if rc.Trace {
		layers["runtime.peak_heap_mb"], layers["runtime.gc_pause_ms_total"] = heap.finish()
		sortedLat := sorted(lat)
		layers["serve.single_rows_per_s"] = float64(singleRows) / elapsed
		layers["serve.single_p50_ms"] = median(lat)
		layers["serve.single_p99_ms"] = percentile(sortedLat, 99)
		layers["serve.single_samples"] = float64(len(lat))
		layers["serve.bulk_rows_per_s"] = float64(bulk.rows) / elapsed
		layers["serve.bulk_p50_ms"] = median(bulk.latMS)
		layers["serve.rounds"] = float64(rounds)
		layers["serve.mean_batch_size"] = rows / float64(rounds)
		layers["serve.wan_p50_ms"] = met.WAN().Quantile(0.5)
		layers["serve.route_p50_ms"] = met.Route().Quantile(0.5)
		layers["serve.shed"] = float64(met.Shed())
		layers["serve.timeouts"] = float64(met.Timeouts())
		layers["serve.degraded"] = float64(met.Degraded())
		layers["serve.retries"] = float64(met.Retries())
		layers["serve.worker_rounds"] = float64(st.worker.Rounds() - roundsBefore)
		layers["wire.msgs_per_op"] = float64(msgs) / float64(rounds)
		layers["wire.bytes_per_msg"] = float64(bytes) / float64(msgs)
		layers["mq.link_blocked_s"] = (st.shaper.BlockedTime() - blockedBefore).Seconds()
		layers["mq.link_blocked_share"] = layers["mq.link_blocked_s"] / elapsed
		busy := laneBusy(log.snapshot())
		layers["serve.lane_b_wan_s"] = busy["B:ScoreWAN"].Seconds()
		layers["serve.lane_b_route_s"] = busy["B:ScoreRoute"].Seconds()
		layers["serve.lane_a_score_s"] = busy["A0:Score"].Seconds()
		for _, err := range []error{probeMQ(log, layers), probeScoreWire(in, log, layers)} {
			if err != nil {
				m.attempted++
				m.failed++
				m.notef("FAILED probe: %v", err)
			}
		}
		m.perLayer = layers
	}
	return m, nil
}

// probeHTTP drives Server.Handler through an httptest recorder, one
// single-row request at a time on the idle stack, and returns the mean
// microseconds per request (the scoring round trip included).
func probeHTTP(srv *serve.Server, spec serveSpec, log *spanLog, m *measurement) float64 {
	h := srv.Handler()
	row := 0
	return 1e6 * probe(log, "serve HTTP handler", 10, func() {
		row = (row + 1) % spec.Rows
		body := bytes.NewReader([]byte(fmt.Sprintf(`{"row": %d}`, row)))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/score", body))
		m.attempted++
		if w.Code != http.StatusOK {
			m.failed++
		}
	})
}

// probeScoreWire times the codec on the frame that carries most scoring
// bytes: the routing-bitmap response to a MaxBatch-row request.
func probeScoreWire(in *serveInputs, log *spanLog, out map[string]float64) error {
	const batch = 64 // the batcher's default MaxBatch
	var nodes []core.PredictNodeBits
	for t, tree := range in.model.Parties[0].Trees {
		for id, nd := range tree.Nodes {
			if nd.Owner == 0 {
				nodes = append(nodes, core.PredictNodeBits{Tree: t, Node: id, Bits: make([]byte, (batch+7)/8)})
			}
		}
	}
	resp := core.MsgScoreResponse{Round: 7, Version: 1, Party: 0, Nodes: nodes}
	var err error
	out["wire.score_encode_mb_per_s"], out["wire.score_decode_mb_per_s"], err = probeCodec(log, "MsgScoreResponse", resp)
	return err
}
