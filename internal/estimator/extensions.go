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
// Confidence intervals for these aggregates require empirical methods
// (e.g. bootstrap, see the paper's references [3,47]); the estimates here
// are reported with bootstrap intervals over the private rows.

// matchedValues collects, in row order, the non-NaN agg cells of rows
// satisfying pred (all rows when pred.Match is nil), testing each row's
// dictionary code against the compiled selection.
func matchedValues(rel *relation.Relation, agg string, pred Predicate) ([]float64, error) {
	vals, err := rel.Numeric(agg)
	if err != nil {
		return nil, err
	}
	if pred.Match == nil {
		out := make([]float64, 0, len(vals))
		for _, x := range vals {
			if !math.IsNaN(x) {
				out = append(out, x)
			}
		}
		return out, nil
	}
	ix, err := rel.DiscreteIndex(pred.Attr)
	if err != nil {
		return nil, err
	}
	// Branch-free gather: every row's cell is written at the cursor, which
	// advances on matching codes only (the last slot absorbs the writes
	// after the final match); NaN cells are dropped in a second pass.
	sel := compileSelection(ix, pred)
	advance := make([]int, ix.N())
	for c := range advance {
		if sel.has(uint32(c)) {
			advance[c] = 1
		}
	}
	out := make([]float64, countSelection(ix, sel)+1)
	k := 0
	for i, c := range ix.Codes {
		out[k] = vals[i]
		k += advance[c]
	}
	n := 0
	for _, x := range out[:k] {
		if x == x {
			out[n] = x
			n++
		}
	}
	return out[:n], nil
}

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
	if e.Meta == nil {
		return Estimate{}, fmt.Errorf("estimator: nil view metadata")
	}
	nm, ok := e.Meta.Numeric[agg]
	if !ok {
		return Estimate{}, fmt.Errorf("estimator: no numeric metadata for attribute %q", agg)
	}
	vals, err := matchedValues(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	if len(vals) < 2 {
		return Estimate{}, fmt.Errorf("estimator: variance needs >= 2 rows, have %d", len(vals))
	}
	// One pass after the mean accumulates the second central moment —
	// stats.Variance's value, vals holding no NaN — and the fourth, which
	// the CLT interval for a sample variance needs: sd ~= sqrt((m4 -
	// raw^2)/n).
	mean, err := stats.Mean(vals)
	if err != nil {
		return Estimate{}, err
	}
	var ss, m4 float64
	for _, x := range vals {
		d := x - mean
		ss += d * d
		m4 += d * d * d * d
	}
	raw := ss / float64(len(vals))
	m4 /= float64(len(vals))
	v := raw - stats.LaplaceVariance(nm.B)
	if v < 0 {
		v = 0
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	se := math.Sqrt(math.Max(0, m4-raw*raw) / float64(len(vals)))
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

// DirectMedian is the uncorrected baseline median.
func DirectMedian(rel *relation.Relation, agg string, pred Predicate) (float64, error) {
	return DirectPercentile(rel, agg, pred, 0.5)
}

// DirectPercentile is the uncorrected baseline q-th quantile.
func DirectPercentile(rel *relation.Relation, agg string, pred Predicate, q float64) (float64, error) {
	vals, err := sortedMatched(nil, rel, agg, pred)
	if err != nil {
		return 0, err
	}
	if len(vals) == 0 {
		return 0, fmt.Errorf("estimator: no rows satisfy %s", pred)
	}
	return stats.QuantileSorted(vals, q)
}

// DirectVar is the uncorrected baseline variance (it includes the injected
// noise variance 2b²).
func DirectVar(rel *relation.Relation, agg string, pred Predicate) (float64, error) {
	vals, err := matchedValues(rel, agg, pred)
	if err != nil {
		return 0, err
	}
	if len(vals) < 2 {
		return 0, fmt.Errorf("estimator: variance needs >= 2 rows, have %d", len(vals))
	}
	return stats.Variance(vals)
}
