package vf2boost

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"vf2boost/internal/core"
)

func quick() Config {
	c := MockConfig()
	c.Trees = 4
	c.MaxDepth = 3
	c.MaxBins = 8
	return c
}

func TestPublicAPIEndToEnd(t *testing.T) {
	joined, err := Generate(SynthOptions{Rows: 800, Cols: 10, Density: 1, Dense: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := joined.VerticalSplit([]int{5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if parts[0].Labels() != nil {
		t.Fatal("passive shard has labels")
	}
	model, stats, err := TrainFederated(parts, quick())
	if err != nil {
		t.Fatal(err)
	}
	margins, err := model.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	auc, err := AUC(margins, joined.Labels())
	if err != nil {
		t.Fatal(err)
	}
	if auc < 0.7 {
		t.Errorf("AUC = %g", auc)
	}
	if stats.BytesSent == 0 {
		t.Error("no bytes accounted")
	}
	if len(stats.PerTreeTime) != 4 {
		t.Errorf("PerTreeTime has %d entries", len(stats.PerTreeTime))
	}
	if got := model.SplitsByParty(); len(got) != 2 {
		t.Errorf("SplitsByParty = %v", got)
	}
}

func TestPublicLocalVsFederated(t *testing.T) {
	joined, _ := Generate(SynthOptions{Rows: 600, Cols: 8, Density: 1, Dense: true, Seed: 2})
	parts, _ := joined.VerticalSplit([]int{4, 4})
	cfg := quick()
	fed, _, err := TrainFederated(parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local, err := TrainLocal(joined, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fm, err := fed.PredictAll(parts)
	if err != nil {
		t.Fatal(err)
	}
	lm := local.PredictAll(joined)
	for i := range fm {
		if math.Abs(fm[i]-lm[i]) > 1e-6 {
			t.Fatalf("federated diverges from local at %d", i)
		}
	}
}

func TestPublicModelSaveLoad(t *testing.T) {
	joined, _ := Generate(SynthOptions{Rows: 200, Cols: 6, Density: 1, Dense: true, Seed: 3})
	parts, _ := joined.VerticalSplit([]int{3, 3})
	m, _, err := TrainFederated(parts, quick())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.PredictAll(parts)
	b, _ := back.PredictAll(parts)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("model round trip changed predictions")
		}
	}
}

func TestPublicLibSVMRoundTrip(t *testing.T) {
	d, _ := Generate(SynthOptions{Rows: 50, Cols: 6, Density: 0.5, Seed: 4})
	path := filepath.Join(t.TempDir(), "data.libsvm")
	if err := d.SaveLibSVM(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadLibSVM(path, d.Cols())
	if err != nil {
		t.Fatal(err)
	}
	if back.Rows() != d.Rows() || back.Cols() != d.Cols() {
		t.Error("shape changed")
	}
}

func TestPublicPresets(t *testing.T) {
	names := Presets()
	if len(names) != 7 {
		t.Fatalf("presets = %v", names)
	}
	d, parts, err := GeneratePreset("census", 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() == 0 || len(parts) != 2 {
		t.Error("preset generation broken")
	}
	if _, _, err := GeneratePreset("nope", 1, 1); err == nil {
		t.Error("unknown preset accepted")
	}
}

// TestPublicPresetsMatchCore: each root preset trains the configuration of
// its internal/core namesake — every switch, and the checkpoint
// fingerprint.
func TestPublicPresetsMatchCore(t *testing.T) {
	for _, tc := range []struct {
		name string
		root Config
		core core.Config
	}{
		{"DefaultConfig", DefaultConfig(), core.DefaultConfig()},
		{"BaselineConfig", BaselineConfig(), core.BaselineConfig()},
		{"MockConfig", MockConfig(), core.MockConfig()},
	} {
		got := tc.root.toCore()
		switches := func(c core.Config) string {
			return fmt.Sprintf("%s blaster=%t reordered=%t optimistic=%t packing=%t fastobf=%t", c.Scheme,
				c.BlasterEncryption, c.ReorderedAccumulation, c.OptimisticSplit, c.HistogramPacking, c.FastObfuscation)
		}
		if g, w := switches(got), switches(tc.core); g != w {
			t.Errorf("%s: switches %s, want %s", tc.name, g, w)
		}
		if g, w := got.Fingerprint(), tc.core.Fingerprint(); g != w {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, g, w)
		}
	}
}

func TestPublicAlignInstances(t *testing.T) {
	idsA := []string{"u1", "u2", "u3"}
	idsB := []string{"u3", "u4", "u1"}
	posA, posB, err := AlignInstances(idsA, idsB)
	if err != nil {
		t.Fatal(err)
	}
	if len(posA) != 2 || len(posB) != 2 {
		t.Fatalf("alignment %v %v", posA, posB)
	}
	for k := range posA {
		if idsA[posA[k]] != idsB[posB[k]] {
			t.Error("alignment order broken")
		}
	}
}

func TestPublicTrainValidSplitAndSubRows(t *testing.T) {
	d, _ := Generate(SynthOptions{Rows: 100, Cols: 4, Density: 1, Dense: true, Seed: 5})
	tr, va := d.TrainValidSplit(0.7, 9)
	if tr.Rows() != 70 || va.Rows() != 30 {
		t.Errorf("split %d/%d", tr.Rows(), va.Rows())
	}
	sub := d.SubRows([]int{5, 10, 15})
	if sub.Rows() != 3 {
		t.Error("SubRows broken")
	}
}

func ExampleAlignInstances() {
	// Two enterprises align their overlapping customers with PSI before
	// training; neither learns the other's non-overlapping IDs.
	bank := []string{"u1", "u2", "u3"}
	telco := []string{"u3", "u9", "u1"}
	posBank, posTelco, _ := AlignInstances(bank, telco)
	for k := range posBank {
		fmt.Println(bank[posBank[k]] == telco[posTelco[k]])
	}
	// Output:
	// true
	// true
}

func ExampleGeneratePreset() {
	// A scaled synthetic equivalent of the paper's rcv1 dataset.
	d, parts, _ := GeneratePreset("rcv1", 1000, 1)
	fmt.Println(d.Rows() > 0, len(parts))
	// Output: true 2
}

func ExampleTrainFederated() {
	joined, _ := Generate(SynthOptions{Rows: 400, Cols: 8, Density: 1, Dense: true, Seed: 7})
	parts, _ := joined.VerticalSplit([]int{4, 4})
	cfg := MockConfig() // plaintext mock for a fast doc example
	cfg.Trees = 3
	cfg.MaxDepth = 3
	model, _, _ := TrainFederated(parts, cfg)
	margins, _ := model.PredictAll(parts)
	auc, _ := AUC(margins, joined.Labels())
	fmt.Println(auc > 0.6)
	// Output: true
}
