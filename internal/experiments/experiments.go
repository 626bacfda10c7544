// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on laptop-scale workloads. Each experiment
// returns typed rows so both the cmd/experiments CLI and the root
// bench_test.go harness can drive it; Print* helpers render the same
// layout the paper uses.
//
// Scaling substitutions (documented per-experiment in EXPERIMENTS.md):
// instance counts and feature counts are divided by a scale factor, the
// Paillier modulus defaults to 512 bits instead of 2048, and the public
// network bandwidth is scaled with compute so the comm/compute ratio of
// the paper's testbed is preserved. Absolute times differ from the paper;
// the *shape* — which system wins, by roughly what factor, and where the
// crossovers fall — is what these harnesses check.
package experiments

import (
	"crypto/rand"
	"fmt"
	"sync"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/he"
	"vf2boost/internal/paillier"
)

// keyCache shares one key pair per modulus size across all experiments,
// since key generation is irrelevant to every measured quantity.
var (
	keyMu    sync.Mutex
	keyCache = map[int]*paillier.PrivateKey{}
)

// sharedKey returns a cached Paillier key of the given size.
func sharedKey(bits int) (*paillier.PrivateKey, error) {
	keyMu.Lock()
	defer keyMu.Unlock()
	if k, ok := keyCache[bits]; ok {
		return k, nil
	}
	k, err := paillier.GenerateKey(rand.Reader, bits)
	if err != nil {
		return nil, err
	}
	keyCache[bits] = k
	return k, nil
}

// decryptorFor builds the scheme handle an experiment run should use.
func decryptorFor(scheme string, bits int) (he.Decryptor, error) {
	switch scheme {
	case core.SchemeMock:
		return he.NewMock(bits), nil
	case core.SchemePaillier:
		k, err := sharedKey(bits)
		if err != nil {
			return nil, err
		}
		return he.NewPaillierFromKey(k, 0), nil
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", scheme)
	}
}

// FedRun is the outcome of one federated training run.
type FedRun struct {
	Model   *core.FederatedModel
	Stats   *core.Stats
	Wall    time.Duration
	PerTree []time.Duration
	Bytes   int64
}

// runFed trains once and collects the timing evidence.
func runFed(parts []*dataset.Dataset, cfg core.Config, wanMbps float64) (FedRun, error) {
	dec, err := decryptorFor(cfg.Scheme, cfg.KeyBits)
	if err != nil {
		return FedRun{}, err
	}
	opts := []core.SessionOption{core.WithDecryptor(dec)}
	if wanMbps > 0 {
		opts = append(opts, core.WithWAN(wanMbps, 0))
	}
	s, err := core.NewSession(parts, cfg, opts...)
	if err != nil {
		return FedRun{}, err
	}
	start := time.Now()
	m, err := s.Train()
	if err != nil {
		return FedRun{}, err
	}
	r := FedRun{
		Model:   m,
		Stats:   s.Stats(),
		Wall:    time.Since(start),
		PerTree: s.PerTreeTimes(),
	}
	if s.Broker() != nil {
		r.Bytes = s.Broker().BytesSent()
	}
	return r, nil
}

// twoPartySparse generates a joined sparse dataset and its two-party
// split, the shape of the paper's ablation datasets ([28] Section 5.2).
func twoPartySparse(n, featA, featB int, nnzPerRow int, seed int64) (*dataset.Dataset, []*dataset.Dataset, error) {
	cols := featA + featB
	density := float64(nnzPerRow) / float64(cols)
	if density > 1 {
		density = 1
	}
	d, err := dataset.Generate(dataset.GenOptions{
		Rows: n, Cols: cols, Density: density, Seed: seed,
	})
	if err != nil {
		return nil, nil, err
	}
	parts, err := d.VerticalSplit([]int{featA, featB}, 1)
	if err != nil {
		return nil, nil, err
	}
	return d, parts, nil
}

// presetParts generates the synthetic equivalent of a Table 3 dataset and
// splits it across its parties.
func presetParts(name string, scale float64, seed int64) (*dataset.Dataset, []*dataset.Dataset, error) {
	p, ok := dataset.PresetByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("experiments: unknown preset %q", name)
	}
	opts, counts := p.Options(scale, seed)
	d, err := dataset.Generate(opts)
	if err != nil {
		return nil, nil, err
	}
	parts, err := d.VerticalSplit(counts, len(counts)-1)
	if err != nil {
		return nil, nil, err
	}
	return d, parts, nil
}

// secs converts a duration to float seconds for table rows.
func secs(d time.Duration) float64 { return d.Seconds() }
