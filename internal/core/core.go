// Package core implements the vertical federated GBDT protocol of
// VF²Boost (Fu et al., SIGMOD 2021) — the paper's primary contribution.
//
// One active party ("Party B") holds the labels and the Paillier private
// key; one or more passive parties ("Party A") hold disjoint feature
// columns for the same, pre-aligned instances. Per tree:
//
//  1. B computes per-instance gradients/hessians, folds each ⟨g,h⟩ pair
//     into one plaintext (fixedpoint.PairPlan), encrypts it, and ships one
//     ciphertext per instance to every passive party (Section 3.2);
//  2. each passive party accumulates the ciphertexts into per-node,
//     per-feature gradient histograms by homomorphic addition;
//  3. B decrypts the passive histograms and finds the globally best split
//     of each node across all parties (its own histograms are plaintext);
//  4. the split owner computes the instance placement bitmap and the
//     parties synchronize before the next layer.
//
// The engine implements both the sequential baseline (the paper's VF-GBDT,
// equivalent to SecureBoost's routine) and the concurrent VF²Boost
// protocol. The four optimizations are independently toggleable, which is
// what the ablation benchmarks (Tables 1 and 2) sweep:
//
//   - BlasterEncryption (Section 4.1): gradients are encrypted and shipped
//     in small batches so encryption, WAN transfer and histogram
//     construction overlap;
//   - ReorderedAccumulation (Section 5.1): per-exponent histogram
//     workspaces eliminate almost all cipher-scaling operations;
//   - OptimisticSplit (Section 4.2): B splits nodes tentatively with its
//     own best splits and runs ahead; passive histograms validate the
//     tentative layer, and "dirty" nodes (where a passive party had the
//     better split) are rolled back and re-done;
//   - HistogramPacking (Section 5.2): a node's shifted prefix-sum bins are
//     packed t-per-ciphertext so decryption and transfer shrink by t×.
//
// Split semantics are shared with internal/gbdt (missing/absent values
// route left; candidate k sends stored bins <= k left), and the best-split
// arbitration uses gbdt.Better over global feature indices (passive
// parties' features first, in party order, then B's). Co-located training
// with internal/gbdt on the joined table therefore produces the same trees
// up to fixed-point encoding precision.
package core

import (
	"fmt"
	"runtime"
	"strings"

	"vf2boost/internal/gbdt"
	"vf2boost/internal/objective"
)

// Scheme names accepted by Config.Scheme.
const (
	SchemePaillier = "paillier"
	SchemeMock     = "mock"
)

// Config configures a federated training session. The zero value is not
// usable; start from DefaultConfig.
type Config struct {
	// Trees, LearningRate, MaxDepth, MaxBins mirror gbdt.Params (the
	// paper's protocol: T=20, η=0.1, 7 tree layers, s=20).
	Trees        int
	LearningRate float64
	MaxDepth     int
	MaxBins      int
	// Split holds λ, γ and the child constraints.
	Split gbdt.SplitParams
	// Loss is the scalar training objective of the classic single-output
	// protocol. It is kept for configuration compatibility (checkpoint
	// fingerprints name its type); Objective below supersedes it.
	Loss gbdt.Loss
	// Objective is the multi-output training objective from the
	// internal/objective registry. Nil lifts Loss through the compat shim
	// (binary for logistic, identity/RMSE otherwise), which reproduces
	// the pre-objective protocol exactly. An objective with k > 1 outputs
	// trains k trees per boosting round (Trees rounds, Trees·k trees
	// total), all sharing one gradient encryption pass per round.
	Objective objective.Objective
	// Workers is the per-party parallelism (the paper's per-party worker
	// count, Table 5); <= 0 uses GOMAXPROCS. It sets speed only, never the
	// model: equal seeds give byte-identical models at every value.
	Workers int

	// Scheme selects "paillier" (VF-GBDT / VF²Boost) or "mock" (VF-MOCK).
	Scheme string
	// KeyBits is the Paillier modulus size S (2048 in the paper; scaled
	// down in the experiments).
	KeyBits int
	// BaseExp and ExpSpread configure the fixed-point encoding exponent
	// obfuscation (ExpSpread distinct exponents; the paper observes 4-8).
	BaseExp   int
	ExpSpread int

	// The four VF²Boost optimizations. All false = the VF-GBDT baseline.
	BlasterEncryption     bool
	ReorderedAccumulation bool
	// OptimisticSplit lets a tree speculate (Section 4.2): Party B posts
	// its own best splits before the passive histograms validate them. A
	// tree speculates when the objective has one output and no earlier
	// tree of the session, resumed ones included, lost more than half its
	// splits to the passive parties; once one has, every later tree of the
	// session runs the sequential schedule.
	OptimisticSplit bool
	// HistogramPacking packs a node's occupied bins, as shifted prefix
	// sums, t to a ciphertext (Section 5.2); an empty bin takes no slot,
	// which the per-feature occupancy bitmap of the frame says. Off, the
	// node ships the same slots one to a ciphertext.
	HistogramPacking bool

	// FastObfuscation replaces the per-encryption Paillier obfuscator
	// r^n mod n² with a DJN-style short-exponent h^x served from
	// precomputed fixed-base tables (internal/paillier/fixedbase.go):
	// the base h = r₀^n is derived once at session setup and shipped to
	// passive parties in the setup message, cutting obfuscator cost on
	// every party by roughly an order of magnitude. An extension beyond
	// the paper, whose cost model assumes full r^n obfuscation; turn it
	// off (BaselineConfig does) for the exact-paper baseline. Ignored by
	// the mock scheme.
	FastObfuscation bool

	// BatchSize is the blaster batch size in instances (Section 4.1);
	// <= 0 lets Party B derive it from its row count (rows/16, clamped to
	// [64, 1024]).
	BatchSize int

	// Seed drives exponent obfuscation and any tie-free randomness;
	// training is deterministic given the seed and scheme.
	Seed int64
}

// DefaultConfig returns the paper's hyper-parameters with all VF²Boost
// optimizations enabled.
func DefaultConfig() Config {
	return Config{
		Trees:                 20,
		LearningRate:          0.1,
		MaxDepth:              6,
		MaxBins:               20,
		Split:                 gbdt.SplitParams{Lambda: 1},
		Loss:                  gbdt.LogisticLoss{},
		Scheme:                SchemePaillier,
		KeyBits:               2048,
		BaseExp:               8,
		ExpSpread:             4,
		BlasterEncryption:     true,
		ReorderedAccumulation: true,
		OptimisticSplit:       true,
		HistogramPacking:      true,
		FastObfuscation:       true,
		Seed:                  1,
	}
}

// BaselineConfig returns the VF-GBDT configuration: same cryptography,
// none of the Section 4/5 optimizations. Sibling derivation is no such
// optimization but the standard GBDT trick, and every session applies it
// (DESIGN.md §3.1b).
func BaselineConfig() Config {
	c := DefaultConfig()
	c.BlasterEncryption = false
	c.ReorderedAccumulation = false
	c.OptimisticSplit = false
	c.HistogramPacking = false
	c.FastObfuscation = false
	return c
}

// MockConfig returns the VF-MOCK configuration: the full protocol with
// plaintext pass-through "ciphertexts".
func MockConfig() Config {
	c := BaselineConfig()
	c.Scheme = SchemeMock
	return c
}

func (c *Config) normalize() error {
	if c.Trees <= 0 {
		return fmt.Errorf("core: Trees must be positive, got %d", c.Trees)
	}
	if c.LearningRate <= 0 {
		return fmt.Errorf("core: LearningRate must be positive")
	}
	if c.MaxDepth < 1 || c.MaxDepth > 30 {
		return fmt.Errorf("core: MaxDepth %d out of [1,30]", c.MaxDepth)
	}
	if c.MaxBins < 2 || c.MaxBins > 256 {
		return fmt.Errorf("core: MaxBins %d out of [2,256]", c.MaxBins)
	}
	switch c.Scheme {
	case SchemePaillier, SchemeMock:
	default:
		return fmt.Errorf("core: unknown scheme %q", c.Scheme)
	}
	if c.Scheme == SchemePaillier && (c.KeyBits < 64 || c.KeyBits%2 != 0) {
		return fmt.Errorf("core: KeyBits %d invalid", c.KeyBits)
	}
	if c.Loss == nil {
		c.Loss = gbdt.LogisticLoss{}
	}
	if c.Objective == nil {
		c.Objective = objective.FromLoss(c.Loss)
	} else if lw, ok := c.Objective.(interface{ Loss() gbdt.Loss }); ok {
		// Keep the scalar loss consistent with a shim-wrapped objective so
		// fingerprints and bound queries agree.
		c.Loss = lw.Loss()
	}
	if c.Objective.NumOutputs() < 1 {
		return fmt.Errorf("core: objective %s has %d outputs", c.Objective.Name(), c.Objective.NumOutputs())
	}
	if c.Objective.NumOutputs() > 1 && !objective.Registered(baseName(c.Objective.Name())) {
		return fmt.Errorf("core: objective %q is not in the registry (registered: %s)",
			c.Objective.Name(), strings.Join(objective.Names(), ", "))
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BaseExp < 1 {
		c.BaseExp = 8
	}
	if c.ExpSpread < 1 {
		c.ExpSpread = 4
	}
	return nil
}

// outputs is k, the number of trees per boosting round; 1 for every
// single-output objective.
func (c *Config) outputs() int {
	if c.Objective == nil {
		return 1
	}
	return c.Objective.NumOutputs()
}

// gradBound is the objective's gradient bound, which sizes the folded
// pair fields and with them the histogram-packing slots.
func (c *Config) gradBound() float64 {
	if c.Objective != nil {
		return c.Objective.GradBound()
	}
	return c.Loss.GradBound()
}

// baseName strips the ":arg" suffix of an objective spec.
func baseName(spec string) string {
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		return spec[:i]
	}
	return spec
}
