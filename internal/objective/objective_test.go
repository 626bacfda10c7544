package objective

import (
	"math"
	"strings"
	"testing"

	"vf2boost/internal/gbdt"
)

func TestNewUnknownNameListsRegistry(t *testing.T) {
	_, err := New("nope")
	if err == nil {
		t.Fatal("unknown objective accepted")
	}
	msg := err.Error()
	for _, want := range []string{"nope", "binary", "multiclass", "ranking", "squared"} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q should mention %q", msg, want)
		}
	}
}

func TestNewArgParsing(t *testing.T) {
	cases := []struct {
		spec    string
		name    string
		outputs int
		wantErr bool
	}{
		{spec: "binary", name: "binary", outputs: 1},
		{spec: "squared", name: "squared", outputs: 1},
		{spec: "multiclass:4", name: "multiclass:4", outputs: 4},
		{spec: "ranking", name: "ranking:10", outputs: 1},
		{spec: "ranking:5", name: "ranking:5", outputs: 1},
		{spec: "binary:x", wantErr: true},
		{spec: "multiclass", wantErr: true},
		{spec: "multiclass:1", wantErr: true},
		{spec: "multiclass:abc", wantErr: true},
		{spec: "ranking:0", wantErr: true},
	}
	for _, c := range cases {
		o, err := New(c.spec)
		if c.wantErr {
			if err == nil {
				t.Errorf("New(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("New(%q): %v", c.spec, err)
			continue
		}
		if o.Name() != c.name || o.NumOutputs() != c.outputs {
			t.Errorf("New(%q) = %s/%d, want %s/%d", c.spec, o.Name(), o.NumOutputs(), c.name, c.outputs)
		}
	}
}

func TestRegisteredAndNames(t *testing.T) {
	if !Registered("multiclass") || Registered("nope") {
		t.Error("Registered() misreports the registry")
	}
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("Names() not sorted: %v", names)
		}
	}
}

// TestSoftmaxGradients checks the textbook identities: g_c = p_c - 1{y=c},
// per-instance gradients sum to zero across classes, and hessians are
// positive.
func TestSoftmaxGradients(t *testing.T) {
	obj, err := New("multiclass:3")
	if err != nil {
		t.Fatal(err)
	}
	labels := []float64{0, 1, 2, 1}
	n, k := len(labels), 3
	margins := [][]float64{
		{0.5, -1, 2, 0},
		{-0.5, 1, 0, 0.25},
		{0, 0, -2, -0.25},
	}
	grads := make([][]float64, k)
	hess := make([][]float64, k)
	for c := range grads {
		grads[c] = make([]float64, n)
		hess[c] = make([]float64, n)
	}
	if err := obj.GradHess(labels, margins, grads, hess); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		sum := 0.0
		probs := make([]float64, k)
		obj.Transform([]float64{margins[0][i], margins[1][i], margins[2][i]}, probs)
		for c := 0; c < k; c++ {
			want := probs[c]
			if int(labels[i]) == c {
				want--
			}
			if math.Abs(grads[c][i]-want) > 1e-12 {
				t.Errorf("grad[%d][%d] = %g, want p-1{y=c} = %g", c, i, grads[c][i], want)
			}
			if hess[c][i] <= 0 {
				t.Errorf("hess[%d][%d] = %g, want > 0", c, i, hess[c][i])
			}
			sum += grads[c][i]
		}
		if math.Abs(sum) > 1e-12 {
			t.Errorf("instance %d gradients sum to %g, want 0", i, sum)
		}
	}
	if b := obj.GradBound(); b != 1 {
		t.Errorf("softmax GradBound = %g, want 1", b)
	}
	if err := obj.Validate([]float64{0, 3}); err == nil {
		t.Error("label 3 accepted by multiclass:3")
	}
	if err := obj.Validate([]float64{0, 1.5}); err == nil {
		t.Error("fractional label accepted by multiclass:3")
	}
}

func TestLambdaRankGroups(t *testing.T) {
	obj, err := New("ranking:3")
	if err != nil {
		t.Fatal(err)
	}
	ga := obj.(GroupAware)
	if err := ga.SetGroups([]int{2, 0, 3}); err == nil {
		t.Error("zero-size group accepted")
	}
	if err := ga.SetGroups([]int{3, 2}); err != nil {
		t.Fatal(err)
	}
	// 5 rows in groups {3,2}; validation must reject a mismatched label
	// vector and GradHess a mismatched margin width.
	if err := obj.Validate(make([]float64, 4)); err == nil {
		t.Error("label vector shorter than the group cover accepted")
	}
	labels := []float64{0, 2, 1, 1, 0}
	if err := obj.Validate(labels); err != nil {
		t.Fatal(err)
	}
	margins := [][]float64{{1, 0, -1, 0.5, -0.5}}
	g := [][]float64{make([]float64, 5)}
	h := [][]float64{make([]float64, 5)}
	if err := obj.GradHess(labels, margins, g, h); err != nil {
		t.Fatal(err)
	}
	// Lambda gradients cancel within each query group.
	for _, grp := range [][2]int{{0, 3}, {3, 5}} {
		sum := 0.0
		for i := grp[0]; i < grp[1]; i++ {
			sum += g[0][i]
			if h[0][i] < 0 {
				t.Errorf("hess[%d] = %g, want >= 0", i, h[0][i])
			}
		}
		if math.Abs(sum) > 1e-9 {
			t.Errorf("group %v lambdas sum to %g, want 0", grp, sum)
		}
	}
	// The top-scored document of a group with a worse grade than a lower
	// ranked one must be pushed down (positive gradient = margin shrinks).
	if g[0][0] <= 0 {
		t.Errorf("mis-ranked top document gradient = %g, want > 0", g[0][0])
	}
	// Ungrouped ranking must refuse to train.
	fresh, _ := New("ranking:3")
	if err := fresh.Validate(labels); err == nil {
		t.Error("ranking objective without groups accepted a label vector")
	}
}

func TestFromLossRoundTrip(t *testing.T) {
	o := FromLoss(gbdt.SquaredLoss{})
	if o.Name() != "squared" || o.NumOutputs() != 1 {
		t.Fatalf("FromLoss(squared) = %s/%d", o.Name(), o.NumOutputs())
	}
	l, ok := o.(interface{ Loss() gbdt.Loss })
	if !ok {
		t.Fatal("loss shim does not expose the wrapped loss")
	}
	if _, isSq := l.Loss().(gbdt.SquaredLoss); !isSq {
		t.Fatalf("wrapped loss is %T", l.Loss())
	}
	// BoundFitter: the squared-loss bound must follow the observed label
	// range instead of the historical hard-coded 64.
	bf, ok := o.(BoundFitter)
	if !ok {
		t.Fatal("squared shim does not implement BoundFitter")
	}
	fit := bf.FitBound([]float64{-300, 5, 10})
	if got := fit.GradBound(); got < 300 || got > 4*300 {
		t.Errorf("fitted squared bound = %g, want within [300, 1200]", got)
	}
	if l2 := fit.(interface{ Loss() gbdt.Loss }).Loss().(gbdt.SquaredLoss); l2.Bound == 0 {
		t.Error("fitting did not propagate to the wrapped loss")
	}
	// The receiver stays unfitted, so the next session fits its own labels.
	if l2 := l.Loss().(gbdt.SquaredLoss); l2.Bound != 0 || o.GradBound() != 64 {
		t.Errorf("FitBound changed its receiver: bound %g", o.GradBound())
	}
}
