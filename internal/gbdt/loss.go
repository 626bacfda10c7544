// Package gbdt implements a histogram-based gradient boosting decision
// tree trainer in the style of XGBoost's approximate algorithm: features
// are discretized into s quantile bins, per-node gradient histograms are
// accumulated in one sweep per tree layer, and splits maximize the
// regularized gain of Equation 1 of the VF²Boost paper.
//
// The package serves two roles in the reproduction: it is the paper's
// non-federated "XGBoost" baseline, and it supplies the split-finding and
// binning machinery that the federated engine (internal/core) shares, so
// federated and co-located training take identical split decisions.
package gbdt

import "math"

// Loss is a twice-differentiable training objective.
type Loss interface {
	// Name identifies the loss ("logistic", "squared").
	Name() string
	// GradHess returns the first and second derivative of the loss at
	// the raw prediction (margin) for one instance.
	GradHess(label, margin float64) (g, h float64)
	// GradBound returns an upper bound on |g| (Bound in Section 5.2);
	// gradients of the logistic loss lie in [-1, 1], hessians in [0,
	// 1/4]. The bound drives the histogram-packing shift.
	GradBound() float64
}

// LogisticLoss is the binary cross-entropy on raw margins, the paper's
// loss for all classification experiments.
type LogisticLoss struct{}

func (LogisticLoss) Name() string { return "logistic" }

func (LogisticLoss) GradHess(label, margin float64) (float64, float64) {
	p := 1 / (1 + math.Exp(-margin))
	return p - label, math.Max(p*(1-p), 1e-16)
}

func (LogisticLoss) GradBound() float64 { return 1 }

// SquaredLoss is 0.5·(y-ŷ)² for regression tasks. Bound, when set,
// overrides the default gradient bound; fit it with FitSquaredBound
// before training on unnormalized targets.
type SquaredLoss struct {
	Bound float64
}

func (SquaredLoss) Name() string { return "squared" }

func (SquaredLoss) GradHess(label, margin float64) (float64, float64) {
	return margin - label, 1
}

// GradBound for squared loss depends on the label range. An unfitted
// loss keeps the historical constant 64 (safe for normalized targets);
// a fitted one returns the bound derived from the observed labels, so
// the histogram-packing shift cannot silently overflow on raw targets.
func (l SquaredLoss) GradBound() float64 {
	if l.Bound > 0 {
		return l.Bound
	}
	return 64
}

// FitSquaredBound derives a squared-loss gradient bound from the
// observed label range. Margins start at zero and boosting contracts
// the residual, so |g| = |margin − y| stays within a small multiple of
// max|y|; 4× leaves headroom for transient overshoot and keeps the
// bound a power-of-two-ish round number for the packing shift.
func FitSquaredBound(labels []float64) float64 {
	maxAbs := 1.0
	for _, y := range labels {
		if a := math.Abs(y); a > maxAbs {
			maxAbs = a
		}
	}
	return 4 * maxAbs
}

// LossByName resolves a loss by name; it returns nil for unknown names.
func LossByName(name string) Loss {
	switch name {
	case "logistic":
		return LogisticLoss{}
	case "squared":
		return SquaredLoss{}
	}
	return nil
}
