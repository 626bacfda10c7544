package core

import (
	"crypto/rand"
	"fmt"
	"sync"
	"testing"

	"vf2boost/internal/fixedpoint"
	"vf2boost/internal/he"
	"vf2boost/internal/paillier"
)

// BenchmarkWireNodeHist times finalizing and packing node histograms at the
// benchmark harness's features-dominant shape — a 2048-bit key, 10
// features of 20 bins, density 0.3 — on 1, 2 and 4 workers: the 600-row
// root (every bin occupied), a 24-row node (about a third of the bins),
// and both at once, the imbalanced pair a level of the tree hands the
// party's queue. It reports the slots per packed ciphertext.
// scripts/bench.sh derives pack_parallel_speedup/workers=N and
// pack_fill/occ=N from it; on a host with fewer cores than workers the
// speedup flattens at the core count.
func BenchmarkWireNodeHist(b *testing.B) {
	const rows = 600
	_, parts := twoPartyData(b, rows, 10, 1, 0.3, false, 15)
	priv, err := paillier.GenerateKey(rand.Reader, 2048)
	if err != nil {
		b.Fatal(err)
	}
	dec := he.NewPaillierFromKey(priv, 0)
	cfg := DefaultConfig()
	codec := fixedpoint.NewCodec(dec, fixedpoint.WithExponents(cfg.BaseExp, cfg.ExpSpread))
	pairs, err := codec.PlanPairs(rows, 1)
	if err != nil {
		b.Fatal(err)
	}
	payloads := make([][]byte, rows)
	exps := make([]int, rows)
	for i := range payloads {
		e, err := pairs.Encrypt(float64(i%7)/7-0.4, 0.2, codec.ExpAt(0, 0, i))
		if err != nil {
			b.Fatal(err)
		}
		payloads[i], exps[i] = dec.Marshal(e.Ct), e.Exp
	}
	for _, shape := range []struct {
		name  string
		nodes []int // instances per node wired concurrently
	}{{"occ=100", []int{rows}}, {"occ=30", []int{24}}, {"two-node", []int{rows, 24}}} {
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("bits=2048/%s/workers=%d", shape.name, workers), func(b *testing.B) {
				cfg.Workers = workers
				p := testPassive(b, parts[0], cfg, NewLink(discardTransport{}))
				err = p.handleSetup(MsgSetup{Scheme: SchemePaillier, N: dec.N().Bytes(), Bits: 2048,
					BaseExp: cfg.BaseExp, ExpSpread: cfg.ExpSpread, PairBits: pairs.W, PackBits: 2 * pairs.W})
				if err != nil {
					b.Fatal(err)
				}
				gh := make([]fixedpoint.EncNum, rows)
				for i := range gh {
					ct, err := p.scheme.Unmarshal(payloads[i])
					if err != nil {
						b.Fatal(err)
					}
					gh[i] = fixedpoint.EncNum{Exp: exps[i], Ct: ct}
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					// Finalizing consumes the accumulators, so every iteration
					// packs fresh histograms; accumulation is not timed.
					b.StopTimer()
					hists := make([]*fixedpoint.Sums, len(shape.nodes))
					for k, n := range shape.nodes {
						hists[k] = p.newHist()
						if err := p.accumulate(hists[k], p.view, allInstances(n), gh); err != nil {
							b.Fatal(err)
						}
					}
					b.StartTimer()
					var wg sync.WaitGroup
					for k, hist := range hists {
						wg.Add(1)
						go func() {
							defer wg.Done()
							if err := p.wireHist(&histTask{}, 0, 0, NodeHist{Node: int32(k + 1)}, hist); err != nil {
								b.Error(err)
							}
						}()
					}
					wg.Wait()
				}
				b.ReportMetric(p.stats.PackFill(), "slots/ct")
			})
		}
	}
}
