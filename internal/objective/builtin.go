package objective

import (
	"fmt"
	"math"
	"strconv"

	"vf2boost/internal/gbdt"
	"vf2boost/internal/metrics"
)

func init() {
	Register("binary", func(arg string) (Objective, error) {
		if arg != "" {
			return nil, fmt.Errorf("binary takes no argument, got %q", arg)
		}
		return FromLoss(gbdt.LogisticLoss{}), nil
	})
	Register("squared", func(arg string) (Objective, error) {
		if arg != "" {
			return nil, fmt.Errorf("squared takes no argument, got %q", arg)
		}
		return FromLoss(gbdt.SquaredLoss{}), nil
	})
	Register("multiclass", func(arg string) (Objective, error) {
		if arg == "" {
			return nil, fmt.Errorf("multiclass needs a class count, e.g. multiclass:3")
		}
		k, err := strconv.Atoi(arg)
		if err != nil || k < 2 {
			return nil, fmt.Errorf("multiclass class count %q must be an integer >= 2", arg)
		}
		return NewMulticlass(k), nil
	})
}

// FromLoss lifts a scalar gbdt.Loss into a single-output Objective — the
// compat shim that lets every existing binary/regression code path run
// unchanged behind the objective layer. It builds on gbdt's own lift, so
// the scalar gradient pass exists once. The logistic loss surfaces as
// "binary" (sigmoid transform, AUC metric); any other loss keeps its own
// name with an identity transform and RMSE.
func FromLoss(l gbdt.Loss) Objective {
	name := l.Name()
	if name == "logistic" {
		name = "binary"
	}
	return &lossObjective{ScalarObjective: gbdt.ScalarObjective{Loss: l}, name: name}
}

type lossObjective struct {
	gbdt.ScalarObjective
	name string
}

func (o *lossObjective) Name() string       { return o.name }
func (o *lossObjective) GradBound() float64 { return o.Loss().GradBound() }

// Loss exposes the wrapped scalar loss so the engine can keep its
// loss-typed configuration (checkpoints fingerprint the loss type).
func (o *lossObjective) Loss() gbdt.Loss { return o.ScalarObjective.Loss }

func (o *lossObjective) GradHess(labels []float64, margins, grads, hess [][]float64) error {
	if err := checkShape(1, len(labels), margins, grads, hess); err != nil {
		return err
	}
	return o.ScalarObjective.GradHess(labels, margins, grads, hess)
}

func (o *lossObjective) Transform(margins, out []float64) {
	if o.name == "binary" {
		out[0] = metrics.Sigmoid(margins[0])
		return
	}
	out[0] = margins[0]
}

func (o *lossObjective) EvalName() string {
	if o.name == "binary" {
		return "auc"
	}
	return "rmse"
}

func (o *lossObjective) Eval(labels []float64, margins [][]float64) (float64, error) {
	if len(margins) != 1 {
		return 0, fmt.Errorf("objective: %s expects 1 output, got %d", o.name, len(margins))
	}
	if o.name == "binary" {
		return metrics.AUC(margins[0], labels)
	}
	return metrics.RMSE(margins[0], labels)
}

func (o *lossObjective) Validate(labels []float64) error {
	if o.name != "binary" {
		return nil
	}
	for i, y := range labels {
		if y != 0 && y != 1 {
			return fmt.Errorf("objective: binary label %v at row %d is not 0 or 1", y, i)
		}
	}
	return nil
}

// FitBound implements BoundFitter for the squared loss: the active party
// replaces the historical constant-64 bound with one derived from the
// observed label range before the packing shift is planned.
func (o *lossObjective) FitBound(labels []float64) Objective {
	if sq, ok := o.Loss().(gbdt.SquaredLoss); ok && sq.Bound == 0 {
		return FromLoss(gbdt.SquaredLoss{Bound: gbdt.FitSquaredBound(labels)})
	}
	return o
}

// NewMulticlass builds a k-class softmax objective: k trees per boosting
// round, gradients g_c = p_c − 1{y=c} and hessians h_c = 2·p_c·(1−p_c)
// over the softmax probabilities of the k raw margins.
func NewMulticlass(k int) Objective {
	return &multiclass{k: k}
}

type multiclass struct {
	k int
}

func (m *multiclass) Name() string       { return "multiclass:" + strconv.Itoa(m.k) }
func (m *multiclass) NumOutputs() int    { return m.k }
func (m *multiclass) GradBound() float64 { return 1 }

func (m *multiclass) InitMargin([]float64, int) float64 { return 0 }

func (m *multiclass) GradHess(labels []float64, margins, grads, hess [][]float64) error {
	if err := checkShape(m.k, len(labels), margins, grads, hess); err != nil {
		return err
	}
	row := make([]float64, m.k)
	for i, y := range labels {
		cls := int(y)
		for c := 0; c < m.k; c++ {
			row[c] = margins[c][i]
		}
		metrics.Softmax(row, row)
		for c := 0; c < m.k; c++ {
			p := row[c]
			ind := 0.0
			if c == cls {
				ind = 1
			}
			grads[c][i] = p - ind
			hess[c][i] = math.Max(2*p*(1-p), 1e-16)
		}
	}
	return nil
}

func (m *multiclass) Transform(margins, out []float64) {
	metrics.Softmax(margins, out)
}

func (m *multiclass) EvalName() string { return "mlogloss" }

func (m *multiclass) Eval(labels []float64, margins [][]float64) (float64, error) {
	return metrics.SoftmaxLogLoss(margins, labels)
}

func (m *multiclass) Validate(labels []float64) error {
	for i, y := range labels {
		cls := int(y)
		if float64(cls) != y || cls < 0 || cls >= m.k {
			return fmt.Errorf("objective: label %v at row %d is not a class in [0,%d)", y, i, m.k)
		}
	}
	return nil
}

func checkShape(k, n int, mats ...[][]float64) error {
	for _, mat := range mats {
		if len(mat) != k {
			return fmt.Errorf("objective: matrix has %d outputs, want %d", len(mat), k)
		}
		for c := range mat {
			if len(mat[c]) != n {
				return fmt.Errorf("objective: output %d has %d rows, want %d", c, len(mat[c]), n)
			}
		}
	}
	return nil
}
