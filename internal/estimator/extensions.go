package estimator

import (
	"fmt"
	"math"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the Section 10 var and std extensions: the Laplace
// noise GRR adds to numeric attributes is independent of the data, so
// var(x + noise) = var(x) + 2b², and subtracting the known noise variance
// de-biases the estimate. The paper leaves its confidence interval to
// empirical methods (e.g. bootstrap, its references [3,47]); here it is the
// asymptotic CLT interval of a sample variance, from the matched cells'
// fourth central moment. Section 10's median and percentile queries, which
// the paper treats as noise-robust order statistics, are answered by the
// binned estimator (binned.go), which also inverts the predicate's
// randomized-response mixing.

// Var estimates the variance of agg over rows satisfying pred, subtracting
// the known Laplace noise variance 2b² (var(x+y) = var(x)+var(y) for
// independent x, y). The estimate is clamped at 0: sampling noise can push
// the raw difference slightly negative for near-constant columns.
func (e *Estimator) Var(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	b := 0.0 // the nominal estimator keeps the noise variance
	if !e.nominal {
		if e.Meta == nil {
			return Estimate{}, fmt.Errorf("estimator: nil view metadata")
		}
		nm, ok := e.Meta.Numeric[agg]
		if !ok {
			return Estimate{}, fmt.Errorf("estimator: no numeric metadata for attribute %q", agg)
		}
		b = nm.B
	}
	n, raw, m4, err := matchedMoments(e.Cache, rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	if n < 2 {
		return Estimate{}, fmt.Errorf("estimator: variance needs >= 2 rows, have %d", int(n))
	}
	// raw is the second central moment of the matched cells — stats.Variance's
	// value up to re-association — and m4 the fourth, which the CLT interval
	// for a sample variance needs: sd ~= sqrt((m4 - raw^2)/n).
	v := raw - stats.LaplaceVariance(b)
	if v < 0 {
		v = 0
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	se := math.Sqrt(math.Max(0, m4-raw*raw) / n)
	return Estimate{Value: v, CI: z * se}, nil
}

// Std estimates the standard deviation of agg over rows satisfying pred via
// the square root of the corrected variance (delta-method interval).
func (e *Estimator) Std(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	v, err := e.Var(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	sd := math.Sqrt(v.Value)
	ci := 0.0
	if sd > 0 {
		ci = v.CI / (2 * sd)
	}
	return Estimate{Value: sd, CI: ci}, nil
}
