package estimator

import (
	"fmt"
	"math"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the Section 10 "Different Aggregates" extensions:
//
//   - median and percentile queries: the Laplace noise GRR adds to numeric
//     attributes has median 0, so order statistics of the private column are
//     consistent estimates of the true order statistics;
//   - var and std queries: the noise is independent of the data, so
//     var(x + noise) = var(x) + 2b², and subtracting the known noise
//     variance de-biases the estimate.
//
// The paper leaves their confidence intervals to empirical methods (e.g.
// bootstrap, its references [3,47]). Here they are asymptotic instead:
// percentiles take the binomial order-statistic bound over the private
// matched values, and var the CLT interval of a sample variance, from the
// matched cells' fourth central moment.

// Median estimates the median of agg over rows satisfying pred. Because the
// Laplace mechanism's noise has median zero, the sample median of the
// private values is a consistent estimator of the true median (up to the
// predicate's randomized-response mixing, which is not corrected — the
// paper's extension treats order statistics as noise-robust only).
func (e *Estimator) Median(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	return e.Percentile(rel, agg, pred, 0.5)
}

// Percentile estimates the q-th percentile (q in [0,1]) of agg over rows
// satisfying pred, with a CLT interval for the sample quantile using the
// asymptotic density-free binomial bound.
func (e *Estimator) Percentile(rel *relation.Relation, agg string, pred Predicate, q float64) (Estimate, error) {
	if q < 0 || q > 1 {
		return Estimate{}, fmt.Errorf("estimator: percentile %v out of [0,1]", q)
	}
	vals, err := sortedMatched(e.Cache, rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	if len(vals) == 0 {
		return Estimate{}, fmt.Errorf("estimator: no rows satisfy %s", pred)
	}
	point, err := stats.QuantileSorted(vals, q)
	if err != nil {
		return Estimate{}, err
	}
	// Order-statistic interval: the q-th quantile lies between the order
	// statistics at ranks n*q ± z*sqrt(n*q*(1-q)) with the configured
	// confidence.
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	n := float64(len(vals))
	spread := z * math.Sqrt(n*q*(1-q)) / n
	loQ := q - spread
	hiQ := q + spread
	if loQ < 0 {
		loQ = 0
	}
	if hiQ > 1 {
		hiQ = 1
	}
	lo, err := stats.QuantileSorted(vals, loQ)
	if err != nil {
		return Estimate{}, err
	}
	hi, err := stats.QuantileSorted(vals, hiQ)
	if err != nil {
		return Estimate{}, err
	}
	ci := (hi - lo) / 2
	return Estimate{Value: point, CI: ci}, nil
}

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
