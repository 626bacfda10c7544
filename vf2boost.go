// Package vf2boost is a from-scratch Go implementation of VF²Boost (Fu et
// al., SIGMOD 2021): very fast vertical federated gradient boosting for
// cross-enterprise learning.
//
// Two or more parties hold disjoint feature columns for the same
// instances; only the active party ("Party B") holds labels. Training
// exchanges only Paillier-encrypted gradient statistics, encrypted
// gradient histograms, split decisions and instance-placement bitmaps, so
// neither labels nor raw features cross party boundaries. The concurrent
// protocol (blaster-style encryption, optimistic node-splitting) and the
// GBDT-customized cryptography (re-ordered histogram accumulation,
// polynomial histogram packing) reproduce the paper's optimizations and
// can be toggled individually.
//
// Quick start (two parties in one process):
//
//	joined, _ := vf2boost.Generate(vf2boost.SynthOptions{Rows: 10000, Cols: 40, Density: 0.3, Seed: 1})
//	parts, _ := joined.VerticalSplit([]int{20, 20})
//	cfg := vf2boost.DefaultConfig()
//	model, stats, _ := vf2boost.TrainFederated(parts, cfg)
//	margins, _ := model.PredictAll(parts)
//
// The non-federated baseline trainer (TrainLocal) and the VF-MOCK and
// VF-GBDT baseline configurations used in the paper's evaluation are also
// exposed.
package vf2boost

import (
	"fmt"
	"io"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/metrics"
	"vf2boost/internal/psi"
)

// Dataset is a labeled or unlabeled sparse feature matrix.
type Dataset struct {
	ds *dataset.Dataset
}

// SynthOptions shapes a synthetic classification dataset.
type SynthOptions struct {
	Rows    int
	Cols    int
	Density float64 // (0,1]; 1 = dense
	Dense   bool    // dense Gaussian features instead of sparse positive
	Noise   float64 // label flip probability
	Seed    int64
}

// Generate builds a deterministic synthetic dataset.
func Generate(o SynthOptions) (*Dataset, error) {
	ds, err := dataset.Generate(dataset.GenOptions{
		Rows: o.Rows, Cols: o.Cols, Density: o.Density,
		Dense: o.Dense, NoiseProb: o.Noise, Seed: o.Seed,
	})
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// LoadLibSVM reads a LibSVM-format file. cols <= 0 infers the width.
// Query-group tokens (qid:N) are checked and dropped.
func LoadLibSVM(path string, cols int) (*Dataset, error) {
	ds, _, err := dataset.LoadLibSVMFile(path, cols)
	if err != nil {
		return nil, err
	}
	return &Dataset{ds: ds}, nil
}

// SaveLibSVM writes the dataset in LibSVM format.
func (d *Dataset) SaveLibSVM(path string) error { return dataset.SaveLibSVMFile(path, d.ds, nil) }

// Rows returns the instance count.
func (d *Dataset) Rows() int { return d.ds.Rows() }

// Cols returns the feature count.
func (d *Dataset) Cols() int { return d.ds.Cols() }

// Density returns the stored-entry fraction.
func (d *Dataset) Density() float64 { return d.ds.Density() }

// Labels returns the label vector (nil for unlabeled shards).
func (d *Dataset) Labels() []float64 { return d.ds.Labels }

// VerticalSplit partitions the columns into contiguous per-party blocks;
// the last block keeps the labels (it becomes Party B).
func (d *Dataset) VerticalSplit(counts []int) ([]*Dataset, error) {
	parts, err := d.ds.VerticalSplit(counts, len(counts)-1)
	if err != nil {
		return nil, err
	}
	out := make([]*Dataset, len(parts))
	for i, p := range parts {
		out[i] = &Dataset{ds: p}
	}
	return out, nil
}

// TrainValidSplit splits rows into train and validation shards.
func (d *Dataset) TrainValidSplit(trainFrac float64, seed int64) (train, valid *Dataset) {
	tr, va := d.ds.TrainValidSplit(trainFrac, seed)
	return &Dataset{ds: tr}, &Dataset{ds: va}
}

// SubRows selects rows by index (used to apply a PSI alignment).
func (d *Dataset) SubRows(rows []int) *Dataset { return &Dataset{ds: d.ds.SubRows(rows)} }

// Config mirrors the paper's hyper-parameters and optimization toggles.
type Config struct {
	Trees        int
	LearningRate float64
	MaxDepth     int
	MaxBins      int
	Lambda       float64
	Gamma        float64
	Workers      int

	// Loss selects the objective: "logistic" (default) or "squared".
	Loss string

	// Scheme is "paillier" or "mock" (the paper's VF-MOCK baseline).
	Scheme  string
	KeyBits int

	// The four VF²Boost optimizations.
	Blaster     bool
	Reordered   bool
	Optimistic  bool
	HistPacking bool
	// fullObfuscation turns off the DJN-style fast obfuscator (see
	// internal/core.Config.FastObfuscation) for the exact-paper baseline.
	// Only BaselineConfig sets it, so a Config literal keeps the fast one.
	fullObfuscation bool

	// WANMbps simulates the public-network bandwidth between parties
	// (0 = unshaped); WANLatency adds fixed per-message delay.
	WANMbps    float64
	WANLatency time.Duration

	Seed int64
}

// DefaultConfig returns the paper's protocol with all optimizations on
// (VF²Boost).
func DefaultConfig() Config {
	return Config{
		Trees: 20, LearningRate: 0.1, MaxDepth: 6, MaxBins: 20, Lambda: 1,
		Scheme: "paillier", KeyBits: 2048,
		Blaster: true, Reordered: true, Optimistic: true, HistPacking: true,
		Seed: 1,
	}
}

// BaselineConfig returns VF-GBDT: same cryptography, no optimizations —
// internal/core.BaselineConfig, full r^n obfuscation included.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.Blaster, c.Reordered, c.Optimistic, c.HistPacking = false, false, false, false
	c.fullObfuscation = true
	return c
}

// MockConfig returns VF-MOCK: the unoptimized protocol over plaintexts.
func MockConfig() Config {
	c := BaselineConfig()
	c.Scheme = "mock"
	return c
}

func (c Config) toCore() core.Config {
	cc := core.DefaultConfig()
	cc.Trees = c.Trees
	cc.LearningRate = c.LearningRate
	cc.MaxDepth = c.MaxDepth
	cc.MaxBins = c.MaxBins
	cc.Split.Lambda = c.Lambda
	cc.Split.Gamma = c.Gamma
	cc.Workers = c.Workers
	if c.Loss != "" {
		cc.Loss = gbdt.LossByName(c.Loss)
	}
	cc.Scheme = c.Scheme
	cc.KeyBits = c.KeyBits
	cc.BlasterEncryption = c.Blaster
	cc.ReorderedAccumulation = c.Reordered
	cc.OptimisticSplit = c.Optimistic
	cc.HistogramPacking = c.HistPacking
	cc.FastObfuscation = !c.fullObfuscation
	cc.Seed = c.Seed
	return cc
}

// Stats summarizes where a federated run spent its time and how the
// optimistic protocol behaved.
type Stats struct {
	EncryptTime   time.Duration
	DecryptTime   time.Duration
	BuildHistTime time.Duration
	FindSplitTime time.Duration
	BIdleTime     time.Duration
	AIdleTime     time.Duration
	SplitsByB     int64
	SplitsByA     int64
	DirtyNodes    int64
	AbortedTasks  int64
	BytesSent     int64
	PerTreeTime   []time.Duration
}

// Model is a trained federated GBDT ensemble (all party fragments glued
// for in-process evaluation).
type Model struct {
	fm *core.FederatedModel
}

// TrainFederated runs vertical federated training over the per-party
// shards (passive parties first, labeled Party B last).
func TrainFederated(parts []*Dataset, cfg Config) (*Model, *Stats, error) {
	if cfg.Loss != "" && gbdt.LossByName(cfg.Loss) == nil {
		return nil, nil, fmt.Errorf("vf2boost: unknown loss %q", cfg.Loss)
	}
	raw := make([]*dataset.Dataset, len(parts))
	for i, p := range parts {
		raw[i] = p.ds
	}
	var opts []core.SessionOption
	if cfg.WANMbps > 0 || cfg.WANLatency > 0 {
		opts = append(opts, core.WithWAN(cfg.WANMbps, cfg.WANLatency))
	}
	s, err := core.NewSession(raw, cfg.toCore(), opts...)
	if err != nil {
		return nil, nil, err
	}
	fm, err := s.Train()
	if err != nil {
		return nil, nil, err
	}
	st := s.Stats()
	stats := &Stats{
		EncryptTime:   st.EncryptTime(),
		DecryptTime:   st.DecryptTime(),
		BuildHistTime: st.BuildHistTime(),
		FindSplitTime: st.FindSplitTime(),
		BIdleTime:     st.BIdleTime(),
		AIdleTime:     st.AIdleTime(),
		SplitsByB:     st.SplitsByB(),
		SplitsByA:     st.SplitsByA(),
		DirtyNodes:    st.DirtyNodes(),
		AbortedTasks:  st.AbortedTasks(),
		PerTreeTime:   s.PerTreeTimes(),
	}
	if s.Broker() != nil {
		stats.BytesSent = s.Broker().BytesSent()
	}
	return &Model{fm: fm}, stats, nil
}

// PredictAll returns raw margins for aligned rows of the per-party shards.
func (m *Model) PredictAll(parts []*Dataset) ([]float64, error) {
	raw := make([]*dataset.Dataset, len(parts))
	for i, p := range parts {
		raw[i] = p.ds
	}
	return m.fm.PredictAll(raw)
}

// SplitsByParty returns the confirmed split counts per party.
func (m *Model) SplitsByParty() []int { return m.fm.SplitsByParty }

// GainByParty sums split gains per party, a privacy-respecting
// contribution summary.
func (m *Model) GainByParty() []float64 { return m.fm.GainByParty() }

// Save writes the model as JSON.
func (m *Model) Save(w io.Writer) error { return m.fm.Save(w) }

// LoadModel reads a model written by Save.
func LoadModel(r io.Reader) (*Model, error) {
	fm, err := core.Load(r)
	if err != nil {
		return nil, err
	}
	return &Model{fm: fm}, nil
}

// LocalModel is a non-federated GBDT model (the XGBoost-style baseline).
type LocalModel struct {
	m *gbdt.Model
}

// TrainLocal trains on a co-located labeled dataset.
func TrainLocal(d *Dataset, cfg Config) (*LocalModel, error) {
	if cfg.Loss != "" && gbdt.LossByName(cfg.Loss) == nil {
		return nil, fmt.Errorf("vf2boost: unknown loss %q", cfg.Loss)
	}
	p := gbdt.DefaultParams()
	p.NumTrees = cfg.Trees
	if cfg.LearningRate > 0 {
		p.LearningRate = cfg.LearningRate
	}
	p.MaxDepth = cfg.MaxDepth
	p.MaxBins = cfg.MaxBins
	p.Split.Lambda = cfg.Lambda
	p.Split.Gamma = cfg.Gamma
	p.Workers = cfg.Workers
	if cfg.Loss != "" {
		p.Loss = gbdt.LossByName(cfg.Loss)
	}
	m, err := gbdt.Train(d.ds, p)
	if err != nil {
		return nil, err
	}
	return &LocalModel{m: m}, nil
}

// PredictAll returns raw margins for every row.
func (lm *LocalModel) PredictAll(d *Dataset) []float64 { return lm.m.PredictAll(d.ds) }

// FeatureImportance returns per-feature total split gains.
func (lm *LocalModel) FeatureImportance() []float64 { return lm.m.FeatureImportance() }

// RMSE computes the root mean squared error of raw predictions against
// targets (for squared-loss models).
func RMSE(preds, labels []float64) (float64, error) { return metrics.RMSE(preds, labels) }

// Save writes the model as JSON.
func (lm *LocalModel) Save(w io.Writer) error { return lm.m.Save(w) }

// AUC computes the area under the ROC curve of raw scores against 0/1
// labels.
func AUC(scores, labels []float64) (float64, error) { return metrics.AUC(scores, labels) }

// LogLoss computes the mean logistic loss of raw margins.
func LogLoss(margins, labels []float64) (float64, error) { return metrics.LogLoss(margins, labels) }

// AlignInstances runs the DDH private set intersection over two parties'
// instance-ID lists and returns the aligned row positions for each, in a
// shared order — the preprocessing step before federated training.
func AlignInstances(idsA, idsB []string) (posA, posB []int, err error) {
	_, posA, posB, err = psi.Align(idsA, idsB)
	return posA, posB, err
}

// Presets lists the names of the paper's Table 3 evaluation datasets.
func Presets() []string {
	names := make([]string, len(dataset.Presets))
	for i, p := range dataset.Presets {
		names[i] = p.Name
	}
	return names
}

// GeneratePreset builds a synthetic equivalent of a Table 3 dataset,
// scaled down by `scale` (1 = the paper's full size), and returns the
// per-party feature counts alongside.
func GeneratePreset(name string, scale float64, seed int64) (*Dataset, []int, error) {
	p, ok := dataset.PresetByName(name)
	if !ok {
		return nil, nil, fmt.Errorf("vf2boost: unknown preset %q (have %v)", name, Presets())
	}
	opts, parts := p.Options(scale, seed)
	ds, err := dataset.Generate(opts)
	if err != nil {
		return nil, nil, err
	}
	return &Dataset{ds: ds}, parts, nil
}
