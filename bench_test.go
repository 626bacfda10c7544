// Benchmarks regenerating the paper's evaluation, one benchmark family
// per table/figure (Section 6). These run at reduced scale so the whole
// suite completes in minutes; cmd/experiments runs the fuller,
// paper-shaped sweeps and EXPERIMENTS.md records paper-vs-measured.
//
//	BenchmarkFig7*    — Figure 7  cryptography throughput
//	BenchmarkTable1*  — Table 1   root-node build: blaster + re-ordered
//	BenchmarkTable2*  — Table 2   one tree: optimistic + packing
//	BenchmarkFig10*   — Figure 10 end-to-end convergence runs
//	BenchmarkTable4*  — Table 4   per-tree time across dataset regimes
//	BenchmarkTable5*  — Table 5   worker scaling
//	BenchmarkTable6*  — Table 6   party scaling
package vf2boost

import (
	"crypto/rand"
	"fmt"
	"math/big"
	mrand "math/rand"
	"testing"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/mq"
	"vf2boost/internal/paillier"
	"vf2boost/internal/serve"
)

const benchKeyBits = 256

var benchKey *paillier.PrivateKey

func benchDecryptor(b *testing.B) *he.PaillierDecryptor {
	b.Helper()
	if benchKey == nil {
		k, err := paillier.GenerateKey(rand.Reader, benchKeyBits)
		if err != nil {
			b.Fatal(err)
		}
		benchKey = k
	}
	return he.NewPaillierFromKey(benchKey, 0)
}

// --- Figure 7: cryptography operation throughput ---------------------

func BenchmarkFig7Encrypt(b *testing.B) {
	dec := benchDecryptor(b)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(1))
	rng := mrand.New(mrand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.EncryptValue(rng.NormFloat64()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7Decrypt(b *testing.B) {
	dec := benchDecryptor(b)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(1))
	e, err := codec.EncryptValue(0.375)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := codec.Decrypt(dec, e); err != nil {
			b.Fatal(err)
		}
	}
}

// fig7Ciphers precomputes mixed-exponent ciphertexts for the HAdd benches.
func fig7Ciphers(b *testing.B, codec *fixedpoint.Codec, n int) []fixedpoint.EncNum {
	b.Helper()
	rng := mrand.New(mrand.NewSource(2))
	cts := make([]fixedpoint.EncNum, n)
	for i := range cts {
		e, err := codec.EncryptValue(rng.NormFloat64())
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = e
	}
	return cts
}

func BenchmarkFig7HAddNaive(b *testing.B) {
	dec := benchDecryptor(b)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(2))
	cts := fig7Ciphers(b, codec, 512)
	b.ResetTimer()
	acc := codec.EncryptZero()
	for i := 0; i < b.N; i++ {
		codec.AddEncInto(&acc, cts[i%len(cts)])
	}
}

func BenchmarkFig7HAddReordered(b *testing.B) {
	dec := benchDecryptor(b)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(2))
	cts := fig7Ciphers(b, codec, 512)
	rs := fixedpoint.NewSums(codec, 1, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Add(0, cts[i%len(cts)])
	}
	b.StopTimer()
	rs.Resolve(0, 0, new(int64))
}

func BenchmarkFig7SMul(b *testing.B) {
	dec := benchDecryptor(b)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(3))
	e, err := codec.EncryptValue(1.25)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		codec.ScaleEnc(e, e.Exp+2)
	}
}

func BenchmarkFig7PackedDecrypt(b *testing.B) {
	dec := benchDecryptor(b)
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithSeed(4))
	packBits := 32
	capacity := fixedpoint.PackCapacity(dec, packBits)
	cts := make([]he.Ciphertext, capacity)
	for i := range cts {
		ct, err := dec.Encrypt(big.NewInt(int64(1000 + i)))
		if err != nil {
			b.Fatal(err)
		}
		cts[i] = ct
	}
	packed, err := codec.Pack(cts, packBits)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain, err := dec.Decrypt(packed)
		if err != nil {
			b.Fatal(err)
		}
		fixedpoint.Unpack(plain, packBits, capacity)
	}
	b.ReportMetric(float64(capacity), "values/decrypt")
}

// --- shared federated-bench scaffolding ------------------------------

func benchParts(b *testing.B, n, featA, featB, nnz int, seed int64) []*dataset.Dataset {
	b.Helper()
	cols := featA + featB
	density := float64(nnz) / float64(cols)
	if density > 1 {
		density = 1
	}
	d, err := dataset.Generate(dataset.GenOptions{Rows: n, Cols: cols, Density: density, Seed: seed})
	if err != nil {
		b.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{featA, featB}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return parts
}

func benchTrain(b *testing.B, parts []*dataset.Dataset, cfg core.Config) *core.Stats {
	b.Helper()
	s, err := core.NewSession(parts, cfg, core.WithDecryptor(benchDecryptor(b)))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Train(); err != nil {
		b.Fatal(err)
	}
	return s.Stats()
}

// --- Table 1: root-node build -----------------------------------------

func benchTable1(b *testing.B, blaster, reordered bool) {
	parts := benchParts(b, 600, 25, 25, 25, 1)
	cfg := core.BaselineConfig()
	cfg.Trees = 1
	cfg.MaxDepth = 1
	cfg.KeyBits = benchKeyBits
	cfg.Workers = 1
	cfg.BlasterEncryption = blaster
	cfg.ReorderedAccumulation = reordered
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrain(b, parts, cfg)
	}
}

func BenchmarkTable1RootBaseline(b *testing.B)  { benchTable1(b, false, false) }
func BenchmarkTable1RootBlaster(b *testing.B)   { benchTable1(b, true, false) }
func BenchmarkTable1RootReordered(b *testing.B) { benchTable1(b, false, true) }
func BenchmarkTable1RootBoth(b *testing.B)      { benchTable1(b, true, true) }

// --- Table 2: one full tree -------------------------------------------

func benchTable2(b *testing.B, optimistic, packing bool) {
	parts := benchParts(b, 500, 60, 20, 16, 2)
	cfg := core.BaselineConfig()
	cfg.Trees = 1
	cfg.MaxDepth = 4
	cfg.MaxBins = 8
	cfg.KeyBits = benchKeyBits
	cfg.Workers = 1
	cfg.OptimisticSplit = optimistic
	cfg.HistogramPacking = packing
	var dirty int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := benchTrain(b, parts, cfg)
		dirty += st.DirtyNodes()
	}
	if optimistic {
		b.ReportMetric(float64(dirty)/float64(b.N), "dirty/tree")
	}
}

func BenchmarkTable2TreeBaseline(b *testing.B)   { benchTable2(b, false, false) }
func BenchmarkTable2TreeOptimSplit(b *testing.B) { benchTable2(b, true, false) }
func BenchmarkTable2TreeHistPack(b *testing.B)   { benchTable2(b, false, true) }
func BenchmarkTable2TreeBoth(b *testing.B)       { benchTable2(b, true, true) }

// --- Figure 10: end-to-end convergence runs ----------------------------

func benchFig10(b *testing.B, cfg core.Config) {
	// census-shaped: small, sparse, two similar parties.
	parts := benchParts(b, 1000, 39, 35, 13, 3)
	cfg.Trees = 3
	cfg.MaxDepth = 4
	cfg.KeyBits = benchKeyBits
	cfg.Workers = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrain(b, parts, cfg)
	}
}

func BenchmarkFig10VF2Boost(b *testing.B) {
	cfg := core.DefaultConfig()
	benchFig10(b, cfg)
}

func BenchmarkFig10VFGBDT(b *testing.B) {
	benchFig10(b, core.BaselineConfig())
}

func BenchmarkFig10XGBColocated(b *testing.B) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 1000, Cols: 74, Density: 13.0 / 74, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	p := gbdt.DefaultParams()
	p.NumTrees = 3
	p.MaxDepth = 4
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbdt.Train(d, p); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table 4: per-tree time across dataset regimes ---------------------

func benchTable4(b *testing.B, preset string, cfg core.Config, scheme string) {
	p, ok := dataset.PresetByName(preset)
	if !ok {
		b.Fatalf("unknown preset %s", preset)
	}
	opts, counts := p.Options(10000, 4)
	d, err := dataset.Generate(opts)
	if err != nil {
		b.Fatal(err)
	}
	parts, err := d.VerticalSplit(counts, len(counts)-1)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Trees = 1
	cfg.MaxDepth = 3
	cfg.MaxBins = 8
	cfg.KeyBits = benchKeyBits
	cfg.Workers = 1
	cfg.Scheme = scheme
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTrain(b, parts, cfg)
	}
}

func BenchmarkTable4(b *testing.B) {
	for _, preset := range []string{"susy", "epsilon", "rcv1", "synthesis", "industry"} {
		b.Run(preset+"/VF-MOCK", func(b *testing.B) {
			benchTable4(b, preset, core.MockConfig(), core.SchemeMock)
		})
		b.Run(preset+"/VF-GBDT", func(b *testing.B) {
			benchTable4(b, preset, core.BaselineConfig(), core.SchemePaillier)
		})
		b.Run(preset+"/VF2Boost", func(b *testing.B) {
			benchTable4(b, preset, core.DefaultConfig(), core.SchemePaillier)
		})
	}
}

// --- Table 5: worker scaling -------------------------------------------

func BenchmarkTable5Workers(b *testing.B) {
	parts := benchParts(b, 800, 30, 30, 20, 5)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Trees = 1
			cfg.MaxDepth = 3
			cfg.KeyBits = benchKeyBits
			cfg.Workers = workers
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTrain(b, parts, cfg)
			}
		})
	}
}

// --- Online scoring throughput -----------------------------------------

// serveBenchTransport adapts a gateway producer/consumer pair to
// core.Transport for the serving benchmarks.
type serveBenchTransport struct {
	prod *mq.RemoteProducer
	cons *mq.RemoteConsumer
}

func (t serveBenchTransport) Send(b []byte) error      { return t.prod.Send(b) }
func (t serveBenchTransport) Receive() ([]byte, error) { return t.cons.Receive() }

func serveBenchDial(b *testing.B, addr, sendTopic, recvTopic string) core.Transport {
	b.Helper()
	prod, err := mq.DialProducer(addr, sendTopic, "")
	if err != nil {
		b.Fatal(err)
	}
	cons, err := mq.DialConsumer(addr, recvTopic, "")
	if err != nil {
		b.Fatal(err)
	}
	return serveBenchTransport{prod: prod, cons: cons}
}

// BenchmarkScoreBatch measures online federated scoring throughput
// (requests/sec) per micro-batch size over an in-process TCP gateway —
// the knob that trades one WAN round-trip against N requests.
func BenchmarkScoreBatch(b *testing.B) {
	parts := benchParts(b, 600, 10, 10, 20, 9)
	cfg := core.MockConfig()
	cfg.Trees = 5
	cfg.MaxDepth = 4
	cfg.MaxBins = 8
	cfg.Workers = 1
	sess, err := core.NewSession(parts, cfg)
	if err != nil {
		b.Fatal(err)
	}
	m, err := sess.Train()
	if err != nil {
		b.Fatal(err)
	}

	broker := mq.NewBroker()
	defer broker.Close()
	gw := mq.NewGateway(broker)
	addr, err := gw.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer gw.Close()

	wreg := serve.NewRegistry()
	if err := wreg.Publish(serve.Model{Version: 1, Fragment: m.Parties[0]}); err != nil {
		b.Fatal(err)
	}
	worker := serve.NewPassiveWorker(0, parts[0], wreg)
	go worker.Run(serveBenchDial(b, addr, "sa02b", "sb2a0"))

	breg := serve.NewRegistry()
	err = breg.Publish(serve.Model{
		Version: 1, Fragment: m.Parties[1],
		LearningRate: m.LearningRate, BaseScore: m.BaseScore,
	})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := serve.NewServer(serve.ServerConfig{
		Data:     parts[1],
		Registry: breg,
		Workers:  []core.Transport{serveBenchDial(b, addr, "sb2a0", "sa02b")},
		Session:  "bench",
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Open(); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()

	n := parts[1].Rows()
	for _, size := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			rows := make([]int32, size)
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				for k := range rows {
					rows[k] = int32((i*size + k) % n)
				}
				if _, _, err := srv.ScoreRows(rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*size)/time.Since(start).Seconds(), "req/s")
		})
	}
}

// --- Table 6: party scaling --------------------------------------------

func BenchmarkTable6Parties(b *testing.B) {
	d, err := dataset.Generate(dataset.GenOptions{Rows: 600, Cols: 24, Density: 0.5, Seed: 6})
	if err != nil {
		b.Fatal(err)
	}
	for _, parties := range []int{2, 3, 4} {
		b.Run(fmt.Sprintf("parties=%d", parties), func(b *testing.B) {
			counts := make([]int, parties)
			for i := range counts {
				counts[i] = 24 / parties
			}
			counts[parties-1] += 24 % parties
			parts, err := d.VerticalSplit(counts, parties-1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Trees = 1
			cfg.MaxDepth = 3
			cfg.KeyBits = benchKeyBits
			cfg.Workers = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchTrain(b, parts, cfg)
			}
		})
	}
}
