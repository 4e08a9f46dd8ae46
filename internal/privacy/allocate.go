package privacy

import (
	"math"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// AllocateEpsilon implements the Section 4.2.3 "Setting epsilon" procedure:
// given a total privacy budget eps for the relation, it divides the budget
// uniformly over all attributes (numerical and discrete) and derives the
// per-attribute mechanism parameters:
//
//   - each discrete attribute d_i gets p_i = PForEpsilonExact(eps_i, N_i)
//     with N_i the attribute's observed domain size, so the *exact*
//     per-attribute epsilon (EpsilonDiscreteExact) meets the budget share —
//     the paper's 3-value inversion PForEpsilon would overshoot the true
//     local-DP level for any larger domain; and
//   - each numerical attribute a_j gets b_j = Delta_j / eps_j, with
//     Delta_j the attribute's observed max-min range.
//
// By Theorem 1 the released view's TotalEpsilon is then at most eps: equal,
// except that constant columns contribute 0 whatever their parameter —
// numeric ones at any b, and single-valued discrete ones at any p (which
// take the Lemma 1 inversion, having no exact one). The paper's Lemma 1
// accounting of the same release is smaller for domains above 3 values.
func AllocateEpsilon(r *relation.Relation, eps float64) (Params, error) {
	if eps <= 0 || math.IsNaN(eps) || math.IsInf(eps, 0) {
		return Params{}, faults.Errorf(faults.ErrBadParams, "privacy: total epsilon must be positive and finite, got %v", eps)
	}
	discrete := r.Schema().DiscreteNames()
	numeric := r.Schema().NumericNames()
	attrs := len(discrete) + len(numeric)
	if attrs == 0 {
		return Params{}, faults.Errorf(faults.ErrBadInput, "privacy: relation has no attributes")
	}
	per := eps / float64(attrs)

	params := Params{P: make(map[string]float64, len(discrete)), B: make(map[string]float64, len(numeric))}
	for _, name := range discrete {
		p, err := pForBudget(r, name, per)
		if err != nil {
			return Params{}, err
		}
		params.P[name] = p
	}
	for _, name := range numeric {
		col, err := r.Numeric(name)
		if err != nil {
			return Params{}, err
		}
		delta := 0.0
		if lo, hi, err := stats.MinMax(col); err == nil {
			delta = hi - lo
		}
		b, err := BForEpsilon(delta, per)
		if err != nil {
			return Params{}, err
		}
		params.B[name] = b
	}
	return params, nil
}

// pForBudget inverts a per-attribute epsilon share into a randomization
// probability using the attribute's observed domain size (exact inversion).
// Domains below 2 distinct values fall back to the Lemma 1 inversion: a
// constant column is perfectly hidden at any p, so the exact form has
// nothing to invert.
func pForBudget(r *relation.Relation, name string, eps float64) (float64, error) {
	n, err := r.DomainSize(name)
	if err != nil {
		return 0, err
	}
	if n < 2 {
		return PForEpsilon(eps)
	}
	return PForEpsilonExact(eps, n)
}
