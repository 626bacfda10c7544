// Multi-output objective benchmarks: one boosting round of a k-class
// session versus the binary (k=1) reference on the scalar Paillier
// protocol. A k-class round ships its k class streams in one gradient
// shipment — one ciphertext per instance and class — and every class tree
// decrypts its own histograms, so the cipher ops charged to each class
// tree stay near the binary round's.
package vf2boost

import (
	"crypto/rand"
	"fmt"
	"testing"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/he"
	"vf2boost/internal/objective"
	"vf2boost/internal/paillier"
)

// benchKeysByBits caches one Paillier key pair per modulus size, so the
// generation cost is paid once per `go test -bench` process instead of
// once per sub-benchmark iteration.
var benchKeysByBits = map[int]*paillier.PrivateKey{}

func benchDecryptorBits(b *testing.B, bits int) *he.PaillierDecryptor {
	b.Helper()
	k, ok := benchKeysByBits[bits]
	if !ok {
		var err error
		k, err = paillier.GenerateKey(rand.Reader, bits)
		if err != nil {
			b.Fatal(err)
		}
		benchKeysByBits[bits] = k
	}
	return he.NewPaillierFromKey(k, 0)
}

// BenchmarkObjectiveRound trains one round (k class trees) end to end
// and reports Party B's cipher operations per round per class.
func BenchmarkObjectiveRound(b *testing.B) {
	const bits = 1024
	for _, k := range []int{1, 3} {
		b.Run(fmt.Sprintf("k=%d/bits=%d", k, bits), func(b *testing.B) {
			classes := k
			if classes < 2 {
				classes = 2 // generator minimum; k=1 binarizes below
			}
			d, err := dataset.GenerateMulticlass(dataset.MultiGenOptions{
				Rows: 400, Cols: 12, Classes: classes, Seed: 29,
			})
			if err != nil {
				b.Fatal(err)
			}
			if k == 1 {
				for i, y := range d.Labels {
					if y > 0 {
						d.Labels[i] = 1
					} else {
						d.Labels[i] = 0
					}
				}
			}
			parts, err := d.VerticalSplit([]int{6, 6}, 1)
			if err != nil {
				b.Fatal(err)
			}
			cfg := core.DefaultConfig()
			cfg.Trees = 1
			cfg.MaxDepth = 3
			cfg.MaxBins = 8
			cfg.KeyBits = bits
			if k > 1 {
				if cfg.Objective, err = objective.New(fmt.Sprintf("multiclass:%d", k)); err != nil {
					b.Fatal(err)
				}
			}
			var ops int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s, err := core.NewSession(parts, cfg, core.WithDecryptor(benchDecryptorBits(b, bits)))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Train(); err != nil {
					b.Fatal(err)
				}
				ops += s.Crypto().Encryptions() + s.Crypto().Decryptions()
			}
			b.ReportMetric(float64(ops)/float64(b.N)/float64(k), "cipherops/round/class")
		})
	}
}
