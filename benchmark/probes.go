package main

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"path/filepath"
	"time"

	"vf2boost/internal/checkpoint"
	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/mq"
	"vf2boost/internal/objective"
	"vf2boost/internal/ooc"
	"vf2boost/internal/quantile"
	"vf2boost/internal/wire"
)

// Probes time one layer's public functions at the workload's own shape
// (key size, packing width, bins, row width), so that a counter read from
// the program times a unit cost gives that layer's estimated share of the
// run. Each probe runs for probeTime at least; main shortens it once, at
// start-up, for -short.
var probeTime = 200 * time.Millisecond

// probe runs fn inside a span on the "probe" lane, repeatedly for at
// least probeTime and at least minIters times, and returns the mean
// seconds per call.
func probe(log *spanLog, label string, minIters int, fn func()) float64 {
	_, end := log.begin("probe", label, -1)
	defer end()
	start := time.Now()
	n := 0
	for n < minIters || time.Since(start) < probeTime {
		fn()
		n++
	}
	return time.Since(start).Seconds() / float64(n)
}

// packShape mirrors the session's histogram-packing plan (core plans it
// from the same public codec properties): slot width in bits and how many
// bins of one feature share a ciphertext.
func packShape(codec *fixedpoint.Codec, cfg core.Config, rows int) (bits, perCt int) {
	exp := codec.BaseExp() + codec.ExpSpread() - 1
	maxVal := 2 * float64(rows) * cfg.Loss.GradBound() * math.Pow(float64(codec.Base()), float64(exp))
	bits = int(math.Ceil(math.Log2(maxVal))) + 2
	if bits < fixedpoint.DefaultPackBits {
		bits = fixedpoint.DefaultPackBits
	}
	perCt = fixedpoint.PackCapacity(codec.Scheme(), bits)
	if perCt > cfg.MaxBins {
		perCt = cfg.MaxBins
	}
	return bits, perCt
}

// probeCrypto times the cipher and fixed-point primitives under the
// session's key. With the mock scheme the same calls cost next to
// nothing, which is the point of the mock workload.
func probeCrypto(dec he.Decryptor, cfg core.Config, rows int, log *spanLog, out map[string]float64) error {
	us := func(s float64) float64 { return s * 1e6 }
	plain := big.NewInt(123456789)
	encrypt := func() he.Ciphertext {
		ct, err := dec.Encrypt(plain)
		if err != nil {
			panic(err) // plain is in range for every supported key size
		}
		return ct
	}

	pd, isPaillier := dec.(*he.PaillierDecryptor)
	if isPaillier {
		pd.DisableFastObfuscation()
	}
	out["paillier.encrypt_full_us"] = us(probe(log, "paillier encrypt (full obfuscation)", 3, func() { encrypt() }))
	if isPaillier && cfg.FastObfuscation {
		if err := pd.EnableFastObfuscation(); err != nil {
			return err
		}
	}
	out["paillier.encrypt_us"] = us(probe(log, "paillier encrypt", 10, func() { encrypt() }))

	a, b := encrypt(), encrypt()
	var decErr error
	out["paillier.decrypt_us"] = us(probe(log, "paillier decrypt", 10, func() {
		if _, err := dec.Decrypt(a); err != nil {
			decErr = err
		}
	}))
	if decErr != nil {
		return decErr
	}
	out["paillier.hadd_us"] = us(probe(log, "paillier hadd", 100, func() { dec.Add(a, b) }))

	codec := fixedpoint.NewCodec(dec, fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread), fixedpoint.WithSeed(cfg.Seed))
	bits, perCt := packShape(codec, cfg, rows)
	shift := new(big.Int).Lsh(big.NewInt(1), uint(bits))
	out["paillier.smul_us"] = us(probe(log, "paillier smul (packing shift)", 10, func() { dec.MulScalar(a, shift) }))

	var encErr error
	out["fixedpoint.encrypt_value_us"] = us(probe(log, "fixedpoint EncryptValue", 10, func() {
		if _, err := codec.EncryptValue(-0.3712); err != nil {
			encErr = err
		}
	}))
	if encErr != nil {
		return encErr
	}

	slots := make([]he.Ciphertext, perCt)
	for i := range slots {
		ct, err := dec.Encrypt(big.NewInt(int64(1000 + i)))
		if err != nil {
			return err
		}
		slots[i] = ct
	}
	var packed he.Ciphertext
	var packErr error
	out["fixedpoint.pack_us_per_ct"] = us(probe(log, "fixedpoint Pack", 3, func() {
		packed, packErr = codec.Pack(slots, bits)
	}))
	if packErr != nil {
		return packErr
	}
	packedPlain, err := dec.Decrypt(packed)
	if err != nil {
		return err
	}
	out["fixedpoint.unpack_us_per_ct"] = us(probe(log, "fixedpoint Unpack", 100, func() {
		fixedpoint.Unpack(packedPlain, bits, perCt)
	}))
	for i, v := range fixedpoint.Unpack(packedPlain, bits, perCt) {
		if v.Int64() != int64(1000+i) {
			return fmt.Errorf("pack/unpack probe: slot %d holds %v, want %d", i, v, 1000+i)
		}
	}
	out["fixedpoint.values_per_ct"] = float64(perCt)
	out["he.ciphertext_bytes"] = float64(dec.CiphertextBytes())
	return nil
}

// fakeCiphertexts fabricates n serialized ciphertexts of the scheme's
// wire size; the codec never looks inside them.
func fakeCiphertexts(n, size int, rng *rand.Rand) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = make([]byte, size)
		rng.Read(out[i])
	}
	return out
}

// probeCodec measures binary encode and decode speed of one frame in
// MB/s of frame bytes.
func probeCodec(log *spanLog, label string, msg any) (encMBs, decMBs float64, err error) {
	frame, err := wire.Binary.Encode(msg)
	if err != nil {
		return 0, 0, err
	}
	size := float64(len(frame))
	keep := append([]byte(nil), frame...)
	wire.PutBuf(frame)
	enc := probe(log, "wire encode "+label, 10, func() {
		b, _ := wire.Binary.Encode(msg)
		wire.PutBuf(b)
	})
	var decErr error
	dec := probe(log, "wire decode "+label, 10, func() {
		if _, err := wire.Binary.Decode(keep); err != nil {
			decErr = err
		}
	})
	return size / enc / 1e6, size / dec / 1e6, decErr
}

// probeTrainWire times the two frames that carry almost all training
// bytes: one blaster gradient batch and one node's packed histograms
// over Party A's features.
func probeTrainWire(spec trainSpec, cfg core.Config, ctBytes, perCt int, log *spanLog, out map[string]float64) error {
	rng := rand.New(rand.NewSource(cfg.Seed))
	batch := 1024 // core's default blaster batch
	if batch > spec.Rows {
		batch = spec.Rows
	}
	exps := make([]int16, batch)
	for i := range exps {
		exps[i] = int16(cfg.BaseExp + i%cfg.ExpSpread)
	}
	grad := core.MsgGradBatch{Tree: 1, Start: 0, G: fakeCiphertexts(batch, ctBytes, rng),
		H: fakeCiphertexts(batch, ctBytes, rng), GExp: exps, HExp: exps}
	var err error
	if out["wire.grad_encode_mb_per_s"], out["wire.grad_decode_mb_per_s"], err = probeCodec(log, "MsgGradBatch", grad); err != nil {
		return err
	}

	ctsPerFeat := (cfg.MaxBins + perCt - 1) / perCt
	feats := make([]core.FeatHist, spec.FeatA)
	for f := range feats {
		feats[f] = core.FeatHist{NumBins: cfg.MaxBins, Packed: true,
			PackedG: fakeCiphertexts(ctsPerFeat, ctBytes, rng),
			PackedH: fakeCiphertexts(ctsPerFeat, ctBytes, rng),
			Exp:     int16(cfg.BaseExp + cfg.ExpSpread - 1)}
	}
	hist := core.MsgHistograms{Tree: 1, Layer: 1, Nodes: []core.NodeHist{{Node: 2, Feats: feats}}}
	out["wire.hist_encode_mb_per_s"], out["wire.hist_decode_mb_per_s"], err = probeCodec(log, "MsgHistograms", hist)
	return err
}

// linkEnd is one end of a two-topic link; both the in-process broker and
// the TCP gateway provide it.
type linkEnd interface {
	Send([]byte) error
	Receive() ([]byte, error)
}

// brokerEnd is a linkEnd on an in-process broker.
type brokerEnd struct {
	prod *mq.Producer
	cons *mq.Consumer
}

func (e brokerEnd) Send(b []byte) error      { return e.prod.Send(b) }
func (e brokerEnd) Receive() ([]byte, error) { return e.cons.Receive() }

func dialBroker(b *mq.Broker, secret []byte, sendTopic, recvTopic string) (brokerEnd, error) {
	prod, err := b.Producer(sendTopic, mq.Token(secret, sendTopic))
	if err != nil {
		return brokerEnd{}, err
	}
	cons, err := b.Consumer(recvTopic, mq.Token(secret, recvTopic))
	return brokerEnd{prod, cons}, err
}

// pingPong bounces payload between near and an echoing goroutine on far,
// and returns the mean round-trip seconds. closeFar must make far's
// Receive fail, which ends the echo goroutine; pingPong waits for it.
func pingPong(log *spanLog, label string, near, far linkEnd, closeFar func(), payload []byte) (float64, error) {
	echoDone := make(chan struct{})
	go func() {
		defer close(echoDone)
		for {
			b, err := far.Receive()
			if err != nil || far.Send(b) != nil {
				return
			}
		}
	}()
	var pingErr error
	rtt := probe(log, label, 10, func() {
		if pingErr != nil {
			return
		}
		if pingErr = near.Send(payload); pingErr == nil {
			_, pingErr = near.Receive()
		}
	})
	closeFar()
	<-echoDone
	return rtt, pingErr
}

// probeMQ times message hops without the shaper: goroutine to goroutine
// through the in-process broker (what a Session uses), and through the
// TCP gateway on loopback (what party and serve use) at three sizes. A
// hop is half a measured round trip.
func probeMQ(log *spanLog, out map[string]float64) error {
	secret := []byte("bench-probe")
	inproc := mq.NewBroker(mq.WithAuth(secret))
	near, err := dialBroker(inproc, secret, "ping", "pong")
	if err != nil {
		return err
	}
	far, err := dialBroker(inproc, secret, "pong", "ping")
	if err != nil {
		return err
	}
	rtt, err := pingPong(log, "mq in-process hop", near, far, inproc.Close, make([]byte, 1<<10))
	if err != nil {
		return err
	}
	out["mq.inproc_hop_us"] = 1e6 * rtt / 2

	broker := mq.NewBroker(mq.WithAuth(secret))
	defer broker.Close()
	gw := mq.NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer gw.Close()
	for i, p := range []struct {
		name  string
		size  int
		halve float64
	}{{"mq.tcp_rtt_us", 64, 1}, {"mq.hop_us_1k", 1 << 10, 2}, {"mq.hop_us_1m", 1 << 20, 2}} {
		// Fresh topics per size: a closed far end may leave a frame behind.
		ping, pong := fmt.Sprintf("ping%d", i), fmt.Sprintf("pong%d", i)
		near, err := dialGateway(addr, secret, ping, pong)
		if err != nil {
			return err
		}
		far, err := dialGateway(addr, secret, pong, ping)
		if err != nil {
			near.Close()
			return err
		}
		rtt, err := pingPong(log, p.name, near, far, func() { far.Close() }, make([]byte, p.size))
		near.Close()
		if err != nil {
			return err
		}
		out[p.name] = 1e6 * rtt / p.halve
	}
	return nil
}

// probeGBDT times plaintext histogram building on one worker and
// quantile binning, over (at most 20 000 of) the workload's joined rows.
func probeGBDT(d *dataset.Dataset, cfg core.Config, log *spanLog, out map[string]float64) error {
	var mapper *gbdt.BinMapper
	var bm *gbdt.BinnedMatrix
	var binErr error
	binS := probe(log, "gbdt binning", 1, func() {
		if mapper, binErr = gbdt.NewBinMapper(d, cfg.MaxBins); binErr == nil {
			bm = gbdt.NewBinnedMatrix(d, mapper)
		}
	})
	if binErr != nil {
		return binErr
	}
	out["gbdt.bin_rows_per_s"] = float64(d.Rows()) / binS

	all := make([]int32, d.Rows())
	grads := make([]float64, d.Rows())
	hess := make([]float64, d.Rows())
	for i := range all {
		all[i] = int32(i)
		grads[i] = 0.5 - float64(i%7)/7
		hess[i] = 0.25
	}
	var histErr error
	histS := probe(log, "gbdt.BuildHistograms (1 worker)", 3, func() {
		if _, err := gbdt.BuildHistograms(bm, [][]int32{all}, grads, hess, 1); err != nil {
			histErr = err
		}
	})
	out["gbdt.hist_rows_per_s"] = float64(d.Rows()) / histS
	return histErr
}

// probeMisc times the small set-up and per-round helpers: the repo's
// dataset generator at the workload's width, the quantile sketch behind
// binning and the objective's gradient pass.
func probeMisc(spec trainSpec, labels []float64, cfg core.Config, log *spanLog, out map[string]float64) error {
	gen := dataset.GenOptions{Rows: 20_000, Cols: spec.FeatA + spec.FeatB, Density: spec.Density,
		Dense: spec.Density == 1, Seed: cfg.Seed}
	if gen.Rows > spec.Rows {
		gen.Rows = spec.Rows
	}
	var genErr error
	genS := probe(log, "dataset.Generate", 1, func() { _, genErr = dataset.Generate(gen) })
	if genErr != nil {
		return genErr
	}
	out["dataset.generate_rows_per_s"] = float64(gen.Rows) / genS

	values := make([]float64, 100_000)
	rng := rand.New(rand.NewSource(cfg.Seed))
	for i := range values {
		values[i] = rng.NormFloat64()
	}
	sketchS := probe(log, "quantile sketch", 1, func() {
		sk := quantile.MustNew(0.01)
		for _, v := range values {
			sk.Add(v)
		}
		sk.Quantiles(cfg.MaxBins)
	})
	out["quantile.sketch_values_per_s"] = float64(len(values)) / sketchS

	obj := objective.FromLoss(cfg.Loss)
	n := len(labels)
	margins := [][]float64{make([]float64, n)}
	grads := [][]float64{make([]float64, n)}
	hess := [][]float64{make([]float64, n)}
	var objErr error
	ghS := probe(log, "objective GradHess", 3, func() {
		if err := obj.GradHess(labels, margins, grads, hess); err != nil {
			objErr = err
		}
	})
	out["objective.gradhess_rows_per_s"] = float64(n) / ghS
	return objErr
}

// probeOOC makes one cold sequential Row pass over a freshly opened
// store at the workload's budget.
func probeOOC(dir string, spec trainSpec, log *spanLog, out map[string]float64) error {
	st, err := ooc.Open(dir, ooc.Options{MemBudget: spec.MemBudget, Prefetch: true})
	if err != nil {
		return err
	}
	defer st.Close()
	_, end := log.begin("probe", "ooc cold sweep", -1)
	start := time.Now()
	for i := 0; i < st.Rows(); i++ {
		if _, _, err := st.Row(i); err != nil {
			end()
			return err
		}
	}
	end()
	out["ooc.sweep_rows_per_s"] = float64(st.Rows()) / time.Since(start).Seconds()
	return nil
}

// probeCheckpoint saves and loads a snapshot shaped like Party B's (its
// bulk is one margin per row).
func probeCheckpoint(dir string, rows int, log *spanLog, out map[string]float64) error {
	store, err := checkpoint.Open(filepath.Join(dir, "ckpt-probe"))
	if err != nil {
		return err
	}
	snap := struct{ Margins []float64 }{make([]float64, rows)}
	for i := range snap.Margins {
		snap.Margins[i] = math.Sin(float64(i))
	}
	var ckErr error
	out["checkpoint.save_ms"] = 1e3 * probe(log, "checkpoint Save", 3, func() {
		if err := store.Save(1, snap); err != nil {
			ckErr = err
		}
	})
	out["checkpoint.load_ms"] = 1e3 * probe(log, "checkpoint Load", 3, func() {
		var back struct{ Margins []float64 }
		if err := store.Load(1, &back); err != nil {
			ckErr = err
		}
	})
	return ckErr
}
