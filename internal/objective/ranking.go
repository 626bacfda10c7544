package objective

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strconv"

	"vf2boost/internal/metrics"
)

func init() {
	Register("ranking", func(arg string) (Objective, error) {
		cutoff := 10
		if arg != "" {
			k, err := strconv.Atoi(arg)
			if err != nil || k < 1 {
				return nil, fmt.Errorf("ranking NDCG cutoff %q must be a positive integer", arg)
			}
			cutoff = k
		}
		return NewLambdaRank(cutoff), nil
	})
}

// NewLambdaRank builds a LambdaMART-style pairwise ranking objective
// optimizing NDCG@cutoff. It is a single-output objective whose
// gradients couple instances within query groups: for each intra-group
// pair with different relevance grades, the pairwise logistic gradient
// σ(s_lo − s_hi) is weighted by the |ΔNDCG| the swap would cause, so
// mis-ordered pairs near the top of the ranking dominate the update.
// SetGroups must be called with the query-group sizes (contiguous rows)
// before training.
func NewLambdaRank(cutoff int) Objective {
	return &lambdaRank{cutoff: cutoff}
}

type lambdaRank struct {
	cutoff   int
	groups   []int
	maxGroup int
}

func (r *lambdaRank) Name() string    { return "ranking:" + strconv.Itoa(r.cutoff) }
func (r *lambdaRank) NumOutputs() int { return 1 }

// GradBound: each document accumulates at most (group−1) pairwise terms,
// each bounded by ρ·|ΔNDCG| ≤ 1, so the fitted bound is maxGroup−1.
// Before SetGroups the bound falls back to a generous constant.
func (r *lambdaRank) GradBound() float64 {
	if r.maxGroup > 1 {
		return float64(r.maxGroup - 1)
	}
	return 64
}

// SetGroups installs the query-group sizes in row order (GroupAware).
func (r *lambdaRank) SetGroups(sizes []int) error {
	if len(sizes) == 0 {
		return errors.New("objective: ranking needs at least one query group (qid:N tokens)")
	}
	maxG := 0
	for _, g := range sizes {
		if g <= 0 {
			return fmt.Errorf("objective: query group size %d must be positive", g)
		}
		if g > maxG {
			maxG = g
		}
	}
	r.groups = append([]int(nil), sizes...)
	r.maxGroup = maxG
	return nil
}

func (r *lambdaRank) InitMargin([]float64, int) float64 { return 0 }

func (r *lambdaRank) GradHess(labels []float64, margins, grads, hess [][]float64) error {
	if err := checkShape(1, len(labels), margins, grads, hess); err != nil {
		return err
	}
	if err := r.checkGroups(len(labels)); err != nil {
		return err
	}
	s, g, h := margins[0], grads[0], hess[0]
	for i := range g {
		g[i], h[i] = 0, 0
	}
	start := 0
	for _, size := range r.groups {
		r.groupLambdas(s[start:start+size], labels[start:start+size],
			g[start:start+size], h[start:start+size])
		start += size
	}
	// The pairwise hessian vanishes for documents with no mis-ordered
	// pairs; floor it so leaf weights stay finite.
	for i := range h {
		if h[i] < 1e-16 {
			h[i] = 1e-16
		}
	}
	return nil
}

// groupLambdas accumulates the λ-gradients of one query group. Positions
// come from the current ranking by score; |ΔNDCG| is normalized by the
// group's ideal DCG so every pairwise weight lies in [0, 1].
func (r *lambdaRank) groupLambdas(scores, labels, g, h []float64) {
	n := len(scores)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if scores[order[a]] != scores[order[b]] {
			return scores[order[a]] > scores[order[b]]
		}
		return order[a] < order[b]
	})
	pos := make([]int, n)
	for p, i := range order {
		pos[i] = p
	}
	// Ideal DCG over the full group; zero means no relevant document and
	// therefore no pairs with differing grades.
	rel := append([]float64(nil), labels...)
	sort.Sort(sort.Reverse(sort.Float64Slice(rel)))
	var idcg float64
	for p, y := range rel {
		idcg += (math.Exp2(y) - 1) / math.Log2(float64(p)+2)
	}
	if idcg == 0 {
		return
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if labels[i] == labels[j] {
				continue
			}
			hi, lo := i, j
			if labels[j] > labels[i] {
				hi, lo = j, i
			}
			rho := 1 / (1 + math.Exp(scores[hi]-scores[lo]))
			delta := math.Abs((math.Exp2(labels[hi])-math.Exp2(labels[lo]))*
				(1/math.Log2(float64(pos[hi])+2)-1/math.Log2(float64(pos[lo])+2))) / idcg
			lambda := rho * delta
			g[hi] -= lambda
			g[lo] += lambda
			w := rho * (1 - rho) * delta
			h[hi] += w
			h[lo] += w
		}
	}
}

func (r *lambdaRank) Transform(margins, out []float64) { out[0] = margins[0] }

func (r *lambdaRank) EvalName() string { return "ndcg@" + strconv.Itoa(r.cutoff) }

func (r *lambdaRank) Eval(labels []float64, margins [][]float64) (float64, error) {
	if len(margins) != 1 {
		return 0, fmt.Errorf("objective: ranking expects 1 output, got %d", len(margins))
	}
	if err := r.checkGroups(len(labels)); err != nil {
		return 0, err
	}
	return metrics.NDCGAt(r.cutoff, margins[0], labels, r.groups)
}

func (r *lambdaRank) Validate(labels []float64) error {
	if err := r.checkGroups(len(labels)); err != nil {
		return err
	}
	for i, y := range labels {
		if y < 0 {
			return fmt.Errorf("objective: relevance grade %v at row %d is negative", y, i)
		}
	}
	return nil
}

func (r *lambdaRank) checkGroups(rows int) error {
	if r.groups == nil {
		return errors.New("objective: ranking needs query groups (SetGroups not called)")
	}
	total := 0
	for _, g := range r.groups {
		total += g
	}
	if total != rows {
		return fmt.Errorf("objective: query groups cover %d rows of %d", total, rows)
	}
	return nil
}
