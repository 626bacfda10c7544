package core

import (
	"math"
	"strings"
	"testing"

	"vf2boost/internal/dataset"
	"vf2boost/internal/gbdt"
	"vf2boost/internal/he"
	"vf2boost/internal/metrics"
	"vf2boost/internal/objective"
)

// multiclassParts builds a joined k-class dataset plus its vertical
// split (passive party first, labeled Party B last).
func multiclassParts(t testing.TB, rows, cols, classes int, seed int64) (*dataset.Dataset, []*dataset.Dataset) {
	t.Helper()
	d, err := dataset.GenerateMulticlass(dataset.MultiGenOptions{
		Rows: rows, Cols: cols, Classes: classes, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{cols / 2, cols - cols/2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d, parts
}

func mustObjective(t testing.TB, spec string) objective.Objective {
	t.Helper()
	o, err := objective.New(spec)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// localParams mirrors a federated config for the co-located trainer.
func localParams(cfg Config) gbdt.Params {
	lp := gbdt.DefaultParams()
	lp.NumTrees = cfg.Trees
	lp.LearningRate = cfg.LearningRate
	lp.MaxDepth = cfg.MaxDepth
	lp.MaxBins = cfg.MaxBins
	lp.Split = cfg.Split
	return lp
}

// TestMulticlassLosslessVsLocal is the multiclass variant of the paper's
// lossless claim: the federated round-robin schedule (k trees per round
// sharing one gradient pass) must reproduce the co-located multiclass
// trainer up to fixed-point rounding.
func TestMulticlassLosslessVsLocal(t *testing.T) {
	joined, parts := multiclassParts(t, 600, 8, 3, 41)
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 4
	cfg.Objective = mustObjective(t, "multiclass:3")
	fed, _ := trainFed(t, parts, cfg)

	if fed.Outputs() != 3 {
		t.Fatalf("model Outputs() = %d, want 3", fed.Outputs())
	}
	if fed.Objective != "multiclass:3" {
		t.Fatalf("model Objective = %q, want multiclass:3", fed.Objective)
	}
	if got := len(fed.Parties[len(fed.Parties)-1].Trees); got != cfg.Trees*3 {
		t.Fatalf("trained %d trees, want %d rounds x 3 classes = %d", got, cfg.Trees, cfg.Trees*3)
	}

	local, err := gbdt.TrainMulti(joined, mustObjective(t, "multiclass:3"), localParams(cfg))
	if err != nil {
		t.Fatal(err)
	}
	fedM, err := fed.PredictAllOutputs(parts)
	if err != nil {
		t.Fatal(err)
	}
	localM := local.PredictAllOutputs(joined)
	maxDiff := 0.0
	for c := range fedM {
		for i := range fedM[c] {
			if d := math.Abs(fedM[c][i] - localM[c][i]); d > maxDiff {
				maxDiff = d
			}
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("federated vs local multiclass margin divergence %g", maxDiff)
	}
	acc, err := metrics.MulticlassAccuracy(fedM, joined.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if acc < 0.7 {
		t.Errorf("multiclass accuracy = %g, want >= 0.7", acc)
	}
}

// TestMulticlassSharedEncryptionPass is the acceptance gate on the round
// structure of a k-output objective: one gradient shipment per boosting
// round — k class streams, every frame under the round's first tree ID —
// from which the round's k trees build without another encryption pass.
// With depth-1 trees (root decisions only) and unpacked histograms a
// k-class session therefore encrypts and decrypts exactly k times what a
// binary session on the same features does: one ciphertext per instance
// and class, and one root histogram per class tree.
func TestMulticlassSharedEncryptionPass(t *testing.T) {
	const rows, k = 300, 3
	joined, parts3 := multiclassParts(t, rows, 6, k, 43)

	// Same features under a binarized label vector for the k=1 baseline.
	bl := make([]float64, len(joined.Labels))
	for i, y := range joined.Labels {
		if y > 0 {
			bl[i] = 1
		}
	}
	joined.Labels = bl
	parts1, err := joined.VerticalSplit([]int{3, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}

	base := quickConfig(SchemeMock)
	base.MaxDepth = 1
	base.Trees = 3
	base.HistogramPacking = false
	cfg3 := base
	cfg3.Objective = mustObjective(t, "multiclass:3")

	_, s1 := trainFed(t, parts1, base)
	_, s3 := trainFed(t, parts3, cfg3)
	e1, e3 := s1.Crypto().Encryptions(), s3.Crypto().Encryptions()
	if e1 != int64(rows*base.Trees) || e3 != k*e1 {
		t.Errorf("encryptions: binary %d, k=%d %d; want %d and %d×", e1, k, e3, rows*base.Trees, k)
	}
	d1, d3 := s1.Crypto().Decryptions(), s3.Crypto().Decryptions()
	if d1 == 0 || d3 != k*d1 {
		t.Errorf("decryptions: binary %d, k=%d %d; want one root histogram per class tree", d1, k, d3)
	}

	// The shipment itself: round 1's k class streams all carry tree k.
	cfg := mustNormalize(t, cfg3)
	out := chanTransport{ch: make(chan []byte, 64)}
	b := testActive(t, parts3[1], cfg, he.NewMock(512), []*link{NewLink(out)})
	b.marginsAll, b.gradsAll, b.hessAll = make([][]float64, k), make([][]float64, k), make([][]float64, k)
	for c := range b.gradsAll {
		b.marginsAll[c], b.gradsAll[c], b.hessAll[c] = make([]float64, rows), make([]float64, rows), make([]float64, rows)
	}
	if err := cfg.Objective.GradHess(b.labels, b.marginsAll, b.gradsAll, b.hessAll); err != nil {
		t.Fatal(err)
	}
	if err := b.sendGradients(k); err != nil {
		t.Fatal(err)
	}
	shipped := make([]int, k)
	for len(out.ch) > 0 {
		msg, err := NewLink(out).recv()
		if err != nil {
			t.Fatal(err)
		}
		m, ok := msg.(MsgPairBatch)
		if !ok || m.Tree != k || m.Class < 0 || m.Class >= k {
			t.Fatalf("shipment frame %T tree %d class %d, want MsgPairBatch of tree %d", msg, m.Tree, m.Class, k)
		}
		shipped[m.Class] += len(m.Cts)
	}
	for c, n := range shipped {
		if n != rows {
			t.Errorf("class %d stream carried %d of %d instances", c, n, rows)
		}
	}
}

// TestRankingLosslessVsLocal: the LambdaMART objective is single-output,
// so the federated engine must reduce to the classic protocol and match
// the co-located trainer exactly; the NDCG gate proves the query-group
// gradients actually learn the ordering.
func TestRankingLosslessVsLocal(t *testing.T) {
	d, groups, err := dataset.GenerateRanking(dataset.RankGenOptions{
		Groups: 40, GroupSize: 8, Cols: 6, Noise: 0.1, Seed: 44,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := d.VerticalSplit([]int{3, 3}, 1)
	if err != nil {
		t.Fatal(err)
	}

	fedObj := mustObjective(t, "ranking:5")
	if err := fedObj.(objective.GroupAware).SetGroups(groups); err != nil {
		t.Fatal(err)
	}
	cfg := quickConfig(SchemeMock)
	cfg.Trees = 5
	cfg.Objective = fedObj
	fed, _ := trainFed(t, parts, cfg)

	localObj := mustObjective(t, "ranking:5")
	if err := localObj.(objective.GroupAware).SetGroups(groups); err != nil {
		t.Fatal(err)
	}
	local, err := gbdt.TrainMulti(d, localObj, localParams(cfg))
	if err != nil {
		t.Fatal(err)
	}

	fedM, err := fed.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	localM := local.PredictAllOutputs(d)[0]
	maxDiff := 0.0
	for i := range fedM {
		if diff := math.Abs(fedM[i] - localM[i]); diff > maxDiff {
			maxDiff = diff
		}
	}
	if maxDiff > 1e-6 {
		t.Errorf("federated vs local ranking margin divergence %g", maxDiff)
	}

	ndcg, err := metrics.NDCGAt(5, fedM, d.Labels, groups)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]float64, len(fedM))
	base, err := metrics.NDCGAt(5, zeros, d.Labels, groups)
	if err != nil {
		t.Fatal(err)
	}
	if ndcg < base+0.02 {
		t.Errorf("trained NDCG@5 = %g, untrained baseline %g; ranking gradients are not learning", ndcg, base)
	}
}

// TestPeerObjectiveRejection: a passive party must refuse a setup naming
// an objective its registry does not know — before any ciphertext flows.
func TestPeerObjectiveRejection(t *testing.T) {
	_, parts := twoPartyData(t, 20, 2, 2, 1, true, 45)
	cfg := quickConfig(SchemeMock)
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	p := testPassive(t, parts[0], cfg, nil)
	setupErr := p.handleSetup(MsgSetup{
		Scheme: SchemeMock, Bits: 256, BaseExp: 8, ExpSpread: 4, PairBits: 60,
		Objective: "nope:3", Outputs: 3,
	})
	if setupErr == nil {
		t.Fatal("setup with unregistered objective accepted")
	}
	if !strings.Contains(setupErr.Error(), "unregistered objective") ||
		!strings.Contains(setupErr.Error(), "multiclass") {
		t.Errorf("rejection should name the objective and list the registry, got: %v", setupErr)
	}
}

// unregisteredMulti is a k>1 objective that is not in the registry, so
// the session must refuse it at configuration time — a passive peer
// could never mirror its schedule.
type unregisteredMulti struct{ objective.Objective }

func (unregisteredMulti) Name() string    { return "custom:3" }
func (unregisteredMulti) NumOutputs() int { return 3 }

func TestUnregisteredMultiOutputObjectiveRejected(t *testing.T) {
	_, parts := twoPartyData(t, 20, 2, 2, 1, true, 46)
	cfg := quickConfig(SchemeMock)
	cfg.Objective = unregisteredMulti{mustObjective(t, "multiclass:3")}
	if _, err := NewSession(parts, cfg); err == nil {
		t.Fatal("unregistered multi-output objective accepted")
	} else if !strings.Contains(err.Error(), "registry") {
		t.Errorf("error should point at the registry, got: %v", err)
	}
}

// TestMulticlassCheckpointResume: a k=3 session resumed from a round
// checkpoint must finish byte-identically to an uninterrupted run — the
// snapshot carries the kxn margin matrix and rewinds in whole rounds.
func TestMulticlassCheckpointResume(t *testing.T) {
	_, parts := multiclassParts(t, 200, 6, 3, 47)
	cfg := quickConfig(SchemeMock)
	cfg.ExpSpread = 1
	cfg.Trees = 4
	cfg.Objective = mustObjective(t, "multiclass:3")

	full, _ := trainFed(t, parts, cfg)

	dir := t.TempDir()
	short := cfg
	short.Trees = 2
	short.Objective = mustObjective(t, "multiclass:3")
	trainFed(t, parts, short, WithCheckpoints(dir))

	resumed, _ := trainFed(t, parts, cfg, WithCheckpoints(dir), WithResume())

	a, err := full.PredictAllOutputs(parts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := resumed.PredictAllOutputs(parts)
	if err != nil {
		t.Fatal(err)
	}
	for c := range a {
		for i := range a[c] {
			if a[c][i] != b[c][i] {
				t.Fatalf("resumed multiclass model diverges at class %d row %d: %g vs %g",
					c, i, b[c][i], a[c][i])
			}
		}
	}
}
