package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime"
	"time"

	"vf2boost/internal/core"
	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/metrics"
	"vf2boost/internal/objective"
)

// ObjScaleConfig parameterizes the multi-output objective experiment: a
// sweep over class counts k on one synthetic feature matrix, all trained
// on the scalar protocol of Scheme, plus a LambdaMART ranking leg. The
// quantities of interest are the cipher-op counters — a k-class round
// ships its k class streams in one gradient shipment, one ciphertext per
// instance and class, and every class tree decrypts its own histograms,
// so both counters track the naive k-independent-sessions baseline — and
// the parity gates against the co-located multi-output trainer.
type ObjScaleConfig struct {
	Rows    int
	Cols    int
	Classes []int // class-count sweep; 1 = the binary reference point
	Trees   int   // boosting rounds (each round trains k class trees)
	Depth   int
	MaxBins int
	Scheme  string // core.SchemePaillier or core.SchemeMock
	KeyBits int
	Seed    int64
	// RankGroups/RankGroupSize shape the ranking leg; Cutoff is the
	// NDCG@k truncation.
	RankGroups    int
	RankGroupSize int
	Cutoff        int
}

// DefaultObjScale returns the sweep used by cmd/experiments and bench.sh.
func DefaultObjScale() ObjScaleConfig {
	return ObjScaleConfig{
		Rows:    2000,
		Cols:    12,
		Classes: []int{1, 3, 5},
		Trees:   2,
		Depth:   3,
		MaxBins: 16,
		Scheme:  core.SchemePaillier,
		KeyBits: 1024,
		Seed:    23,

		RankGroups:    50,
		RankGroupSize: 8,
		Cutoff:        10,
	}
}

// ObjRow is one class-count point of the sweep.
type ObjRow struct {
	Outputs     int           `json:"outputs"`
	Wall        time.Duration `json:"wall_ns"`
	Encryptions int64         `json:"encryptions"`
	Decryptions int64         `json:"decryptions"`
	HAdds       int64         `json:"hadds"`
	// CipherOpsPerRoundPerClass is (encryptions+decryptions) divided by
	// rounds x k: what one class tree costs in cipher operations.
	CipherOpsPerRoundPerClass float64 `json:"cipher_ops_per_round_per_class"`
	// NaiveEncRatio/NaiveDecRatio compare against k independent binary
	// sessions (k x the k=1 row): 1 for encryptions, near 1 for
	// decryptions (the class trees' shapes and pair widths differ).
	NaiveEncRatio float64 `json:"naive_enc_ratio,omitempty"`
	NaiveDecRatio float64 `json:"naive_dec_ratio,omitempty"`
	// ParityMaxDiff is the largest |federated - local| margin over the
	// k x n matrix (the lossless gate; 0 for the k=1 reference row).
	ParityMaxDiff float64 `json:"parity_max_diff"`
	MetricName    string  `json:"metric_name"`
	Metric        float64 `json:"metric"`
}

// ObjRank is the ranking leg: scalar protocol, query-group gradients.
type ObjRank struct {
	Wall          time.Duration `json:"wall_ns"`
	ParityMaxDiff float64       `json:"parity_max_diff"`
	MetricName    string        `json:"metric_name"`
	Metric        float64       `json:"metric"`
	// Baseline is the same metric for an all-zero score vector (random
	// ordering under the shared tie-break); the gate is Metric > Baseline.
	Baseline float64 `json:"baseline"`
}

// trainLocalMulti trains the co-located reference of a federated config
// under obj.
func trainLocalMulti(d *dataset.Dataset, obj gbdt.MultiObjective, cfg core.Config) (*gbdt.Model, error) {
	p := gbdt.DefaultParams()
	p.NumTrees = cfg.Trees
	p.LearningRate = cfg.LearningRate
	p.MaxDepth = cfg.MaxDepth
	p.MaxBins = cfg.MaxBins
	p.Split = cfg.Split
	p.Workers = 1
	mapper, err := gbdt.NewBinMapper(d, p.MaxBins)
	if err != nil {
		return nil, err
	}
	return gbdt.TrainBinned(gbdt.NewBinnedMatrix(d, mapper), d.Labels, obj, p)
}

// runObjFed trains one federated session and keeps it alive for its
// crypto counters (FedRun drops the session).
func runObjFed(parts []*dataset.Dataset, cfg core.Config) (*core.FederatedModel, *core.Session, time.Duration, error) {
	dec, err := decryptorFor(cfg.Scheme, cfg.KeyBits)
	if err != nil {
		return nil, nil, 0, err
	}
	s, err := core.NewSession(parts, cfg, core.WithDecryptor(dec))
	if err != nil {
		return nil, nil, 0, err
	}
	start := time.Now()
	m, err := s.Train()
	if err != nil {
		return nil, nil, 0, err
	}
	return m, s, time.Since(start), nil
}

// maxAbsDiff compares two k x n margin matrices.
func maxAbsDiff(a, b [][]float64) float64 {
	worst := 0.0
	for c := range a {
		for i := range a[c] {
			if d := math.Abs(a[c][i] - b[c][i]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// ObjScale runs the class-count sweep and the ranking leg.
func ObjScale(tc ObjScaleConfig) ([]ObjRow, ObjRank, error) {
	base := core.DefaultConfig()
	base.Trees = tc.Trees
	base.MaxDepth = tc.Depth
	base.MaxBins = tc.MaxBins
	base.Scheme = tc.Scheme
	base.KeyBits = tc.KeyBits
	base.Workers = 1
	base.Seed = tc.Seed

	var rows []ObjRow
	var ref ObjRow // the k=1 row, the naive baseline's unit
	for _, k := range tc.Classes {
		classes := k
		if classes < 2 {
			classes = 2 // the generator needs >= 2 classes; k=1 binarizes
		}
		d, err := dataset.GenerateMulticlass(dataset.MultiGenOptions{
			Rows: tc.Rows, Cols: tc.Cols, Classes: classes, Seed: tc.Seed,
		})
		if err != nil {
			return nil, ObjRank{}, err
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
		parts, err := d.VerticalSplit([]int{tc.Cols / 2, tc.Cols - tc.Cols/2}, 1)
		if err != nil {
			return nil, ObjRank{}, err
		}

		cfg := base
		if k > 1 {
			obj, err := objective.New(fmt.Sprintf("multiclass:%d", k))
			if err != nil {
				return nil, ObjRank{}, err
			}
			cfg.Objective = obj
		}
		m, s, wall, err := runObjFed(parts, cfg)
		if err != nil {
			return nil, ObjRank{}, err
		}
		cs := s.Crypto()
		row := ObjRow{
			Outputs:     k,
			Wall:        wall,
			Encryptions: cs.Encryptions(),
			Decryptions: cs.Decryptions(),
			HAdds:       cs.HAdds(),
		}
		row.CipherOpsPerRoundPerClass =
			float64(row.Encryptions+row.Decryptions) / float64(tc.Trees*k)
		if k > 1 {
			row.NaiveEncRatio = float64(row.Encryptions) / (float64(k) * float64(ref.Encryptions))
			row.NaiveDecRatio = float64(row.Decryptions) / (float64(k) * float64(ref.Decryptions))

			obj, _ := objective.New(fmt.Sprintf("multiclass:%d", k))
			local, err := trainLocalMulti(d, obj, cfg)
			if err != nil {
				return nil, ObjRank{}, err
			}
			fedM, err := m.PredictAllOutputs(parts)
			if err != nil {
				return nil, ObjRank{}, err
			}
			row.ParityMaxDiff = maxAbsDiff(fedM, local.PredictAllOutputs(d))
			row.MetricName = cfg.Objective.EvalName()
			if row.Metric, err = cfg.Objective.Eval(d.Labels, fedM); err != nil {
				return nil, ObjRank{}, err
			}
		} else {
			ref = row
			margins, err := m.PredictAll(parts)
			if err != nil {
				return nil, ObjRank{}, err
			}
			row.MetricName = "auc"
			if row.Metric, err = metrics.AUC(margins, d.Labels); err != nil {
				return nil, ObjRank{}, err
			}
		}
		rows = append(rows, row)
	}

	rank, err := objRank(tc, base)
	if err != nil {
		return nil, ObjRank{}, err
	}
	return rows, rank, nil
}

// objRank trains the LambdaMART leg over the scalar protocol (ranking is
// single-output) and gates NDCG against the unordered baseline.
func objRank(tc ObjScaleConfig, base core.Config) (ObjRank, error) {
	d, groups, err := dataset.GenerateRanking(dataset.RankGenOptions{
		Groups: tc.RankGroups, GroupSize: tc.RankGroupSize, Cols: tc.Cols,
		Noise: 0.1, Seed: tc.Seed + 1,
	})
	if err != nil {
		return ObjRank{}, err
	}
	parts, err := d.VerticalSplit([]int{tc.Cols / 2, tc.Cols - tc.Cols/2}, 1)
	if err != nil {
		return ObjRank{}, err
	}

	cfg := base
	spec := fmt.Sprintf("ranking:%d", tc.Cutoff)
	obj, err := objective.New(spec)
	if err != nil {
		return ObjRank{}, err
	}
	if err := obj.(objective.GroupAware).SetGroups(groups); err != nil {
		return ObjRank{}, err
	}
	cfg.Objective = obj
	m, _, wall, err := runObjFed(parts, cfg)
	if err != nil {
		return ObjRank{}, err
	}
	margins, err := m.PredictAll(parts)
	if err != nil {
		return ObjRank{}, err
	}

	localObj, err := objective.New(spec)
	if err != nil {
		return ObjRank{}, err
	}
	if err := localObj.(objective.GroupAware).SetGroups(groups); err != nil {
		return ObjRank{}, err
	}
	local, err := trainLocalMulti(d, localObj, cfg)
	if err != nil {
		return ObjRank{}, err
	}

	out := ObjRank{Wall: wall, MetricName: obj.EvalName()}
	out.ParityMaxDiff = maxAbsDiff([][]float64{margins}, local.PredictAllOutputs(d))
	if out.Metric, err = obj.Eval(d.Labels, [][]float64{margins}); err != nil {
		return ObjRank{}, err
	}
	zeros := [][]float64{make([]float64, len(margins))}
	if out.Baseline, err = obj.Eval(d.Labels, zeros); err != nil {
		return ObjRank{}, err
	}
	return out, nil
}

// PrintObjScale renders the sweep.
func PrintObjScale(w io.Writer, tc ObjScaleConfig, rows []ObjRow, rank ObjRank) {
	fmt.Fprintf(w, "Objective scale: %d x %d, T=%d rounds, depth %d, scheme %s (S=%d)\n",
		tc.Rows, tc.Cols, tc.Trees, tc.Depth, tc.Scheme, tc.KeyBits)
	fmt.Fprintf(w, "  %2s | %10s | %8s | %8s | %14s | %9s | %9s | %10s | %s\n",
		"k", "wall", "enc", "dec", "ops/round/cls", "enc/naive", "dec/naive", "parity", "metric")
	for _, r := range rows {
		naiveE, naiveD := "-", "-"
		if r.Outputs > 1 {
			naiveE = fmt.Sprintf("%.2fx", r.NaiveEncRatio)
			naiveD = fmt.Sprintf("%.2fx", r.NaiveDecRatio)
		}
		fmt.Fprintf(w, "  %2d | %10v | %8d | %8d | %14.1f | %9s | %9s | %10.2e | %s %.4f\n",
			r.Outputs, r.Wall.Round(time.Millisecond), r.Encryptions, r.Decryptions,
			r.CipherOpsPerRoundPerClass, naiveE, naiveD, r.ParityMaxDiff, r.MetricName, r.Metric)
	}
	fmt.Fprintf(w, "  ranking: %v, parity %.2e, %s %.4f (unordered baseline %.4f)\n",
		rank.Wall.Round(time.Millisecond), rank.ParityMaxDiff, rank.MetricName, rank.Metric, rank.Baseline)
}

// objBench is the BENCH_objectives.json schema.
type objBench struct {
	Date   string         `json:"date"`
	Config ObjScaleConfig `json:"config"`
	Runs   []ObjRow       `json:"runs"`
	Rank   ObjRank        `json:"ranking"`
	Host   oocBenchEnv    `json:"host"`
}

// WriteObjScaleJSON writes the sweep as the committed BENCH_objectives.json
// baseline.
func WriteObjScaleJSON(w io.Writer, date string, tc ObjScaleConfig, rows []ObjRow, rank ObjRank) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(objBench{
		Date:   date,
		Config: tc,
		Runs:   rows,
		Rank:   rank,
		Host:   oocBenchEnv{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, CPUs: runtime.NumCPU()},
	})
}
