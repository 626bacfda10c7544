// Package objective is the registry-backed subsystem of multi-output
// training objectives. It lifts gbdt.Loss — a scalar, per-instance
// derivative pair — into a vector interface that owns the whole label
// vector and a margin matrix, which is what multiclass softmax (k
// coupled outputs per instance) and LambdaMART-style ranking (gradients
// coupled across a query group) need and a per-instance Loss cannot
// express.
//
// Objectives are registered by name at init time, resolved from a "name"
// or "name:arg" spec, and the sorted name list feeds error messages and
// CLI help so an unknown spec fails fast with the available choices. The
// federated engine negotiates the objective name and output count at
// session setup, and a passive party rejects a spec its registry cannot
// resolve before accepting any ciphertext.
package objective

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Objective is a multi-output training objective. An implementation with
// NumOutputs() == k trains k trees per boosting round (one per output,
// round-robin) over a k×n margin matrix; k == 1 reduces to the classic
// single-tree round.
type Objective interface {
	// Name is the canonical spec the objective was built from
	// ("binary", "multiclass:3", "ranking:10").
	Name() string
	// NumOutputs is k, the number of trees per boosting round.
	NumOutputs() int
	// GradBound is an upper bound on |g| and |h| across all outputs; it
	// sizes the folded pair fields and the histogram-packing slots, so an
	// underestimate corrupts packed accumulators.
	GradBound() float64
	// InitMargin is the initial raw margin of output o (before any tree).
	InitMargin(labels []float64, output int) float64
	// GradHess fills the k×n gradient and hessian matrices for the
	// current k×n margin matrix. It is called once per boosting round:
	// all k trees of the round share this one evaluation.
	GradHess(labels []float64, margins, grads, hess [][]float64) error
	// Transform maps one instance's k raw margins to scores in place
	// (softmax for multiclass, sigmoid for binary, identity otherwise).
	// out must have length k; margins and out may alias.
	Transform(margins, out []float64)
	// EvalName names the metric Eval computes ("auc", "mlogloss",
	// "ndcg@10", "rmse").
	EvalName() string
	// Eval computes the objective's headline metric over a k×n margin
	// matrix.
	Eval(labels []float64, margins [][]float64) (float64, error)
	// Validate checks the label vector fits the objective (class range,
	// group coverage) before training starts.
	Validate(labels []float64) error
}

// GroupAware is implemented by objectives whose gradients couple
// instances within query groups (ranking). SetGroups installs the group
// sizes, in row order; rows of one group must be contiguous.
type GroupAware interface {
	SetGroups(sizes []int) error
}

// BoundFitter is implemented by objectives whose gradient bound depends
// on the observed labels (squared loss on unnormalized targets). The
// active party fits the bound from its label vector before the pair and
// packing plans are derived, so the fixed 64 fallback never silently
// overflows a field. FitBound returns the fitted objective and leaves its
// receiver as it was, so one objective can serve many sessions, and
// concurrent ones.
type BoundFitter interface {
	FitBound(labels []float64) Objective
}

// Factory builds an objective from the argument part of a "name:arg"
// spec (empty when the spec carried no argument).
type Factory func(arg string) (Objective, error)

var (
	regMu    sync.RWMutex
	registry = map[string]Factory{}
)

// Register adds a named objective factory. Duplicate names panic —
// registration is an init-time programming act, not a runtime input.
func Register(name string, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic("objective: duplicate registration: " + name)
	}
	registry[name] = f
}

// Registered reports whether a base name (no ":arg") is known.
func Registered(name string) bool {
	regMu.RLock()
	defer regMu.RUnlock()
	_, ok := registry[name]
	return ok
}

// Names lists the registered objective names in sorted order, for error
// messages and CLI help.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// New resolves a spec of the form "name" or "name:arg" ("multiclass:3",
// "ranking:10"). Unknown names fail with the registered list.
func New(spec string) (Objective, error) {
	name, arg := spec, ""
	if i := strings.IndexByte(spec, ':'); i >= 0 {
		name, arg = spec[:i], spec[i+1:]
	}
	regMu.RLock()
	f, ok := registry[name]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("objective: unknown objective %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	obj, err := f(arg)
	if err != nil {
		return nil, fmt.Errorf("objective: %s: %w", name, err)
	}
	return obj, nil
}
