package estimator

import (
	"fmt"
	"math"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the Section 10 "Aggregates over Select-Project-Join
// Views" extension for conjunctive predicates over several discrete
// attributes:
//
//	SELECT agg(a) FROM R WHERE cond(d_1) AND cond(d_2) AND ...
//
// GRR randomizes each attribute independently, so the response channel of
// the conjunction is the tensor product of the per-attribute channels, and
// the bias-correction constants multiply (the paper: "for each column in
// the view, we essentially can calculate the constants and multiply them
// together").
//
// Implementation: for each attribute i the inverse channel assigns a row
// the weight
//
//	w_i = (1 − τ_n,i)/(1 − p_i)  if the private row satisfies cond_i
//	w_i = −τ_n,i/(1 − p_i)       otherwise
//
// which has expectation 1 when the *true* row satisfies cond_i and 0
// otherwise. The product of the per-attribute weights therefore has
// expectation exactly 1 on rows truly satisfying the conjunction, making
//
//	ĉ = Σ_rows Π_i w_i       and      ĥ = Σ_rows (Π_i w_i)·a(row)
//
// unbiased estimators of the conjunction's count and sum. Confidence
// intervals use the CLT over the iid per-row weight terms.

// conjChannel resolves the per-attribute inverse-channel weights for one
// predicate. The predicate's rows are pre-evaluated into a match bitset
// (served from the ChannelCache when attached), so the weight-product scan
// below is branch-on-bit with no per-row predicate calls.
type conjChannel struct {
	pred   Predicate
	bits   *rowBits
	wTrue  float64 // weight when the private value satisfies the predicate
	wFalse float64 // weight otherwise
}

func (e *Estimator) conjChannels(rel *relation.Relation, preds []Predicate) ([]conjChannel, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("estimator: conjunction needs at least one predicate")
	}
	seen := make(map[string]bool, len(preds))
	chans := make([]conjChannel, len(preds))
	for i, pred := range preds {
		if seen[pred.Attr] {
			return nil, fmt.Errorf("estimator: conjunction has two predicates on %q; combine them into one", pred.Attr)
		}
		seen[pred.Attr] = true
		ch, err := e.channel(pred)
		if err != nil {
			return nil, err
		}
		if ch.denom <= 0 {
			return nil, fmt.Errorf("estimator: p = %v on %q leaves no signal to invert", ch.p, pred.Attr)
		}
		// The nil-means-match-all predicate contract holds here too: channel
		// resolved l = N for it and the compiled selection matches every row,
		// so the weights come out right.
		bits, err := e.bitsForPredicate(rel, pred)
		if err != nil {
			return nil, err
		}
		tauN := ch.tauN
		chans[i] = conjChannel{
			pred:   pred,
			bits:   bits,
			wTrue:  (1 - tauN) / ch.denom,
			wFalse: -tauN / ch.denom,
		}
	}
	return chans, nil
}

// conjWeights computes the per-row weight product and accumulates the
// count/sum statistics. vals may be nil for count-only queries. NaN
// aggregate cells contribute nothing to the sum terms, so the sum-variance
// denominator counts only the rows that actually entered the sum.
func conjStatistics(chans []conjChannel, vals []float64, rows int) (count, sum, countVar, sumVar float64) {
	var cAcc, hAcc, c2Acc, h2Acc float64
	var sumRows float64 // rows with a non-NaN aggregate cell
	for r := 0; r < rows; r++ {
		w := 1.0
		for i := range chans {
			if chans[i].bits.get(r) {
				w *= chans[i].wTrue
			} else {
				w *= chans[i].wFalse
			}
		}
		cAcc += w
		c2Acc += w * w
		if vals != nil {
			x := vals[r]
			if math.IsNaN(x) {
				continue
			}
			sumRows++
			hAcc += w * x
			h2Acc += w * x * w * x
		}
	}
	s := float64(rows)
	countVar = c2Acc - cAcc*cAcc/s
	if sumRows > 0 {
		sumVar = h2Acc - hAcc*hAcc/sumRows
	}
	if countVar < 0 {
		countVar = 0
	}
	if sumVar < 0 {
		sumVar = 0
	}
	return cAcc, hAcc, countVar, sumVar
}

// CountConj estimates count(1) under the conjunction of the given
// single-attribute predicates (each on a distinct discrete attribute).
// With one predicate it coincides with Count up to the confidence-interval
// formula.
func (e *Estimator) CountConj(rel *relation.Relation, preds ...Predicate) (Estimate, error) {
	chans, err := e.conjChannels(rel, preds)
	if err != nil {
		return Estimate{}, err
	}
	if rel.NumRows() == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	count, _, countVar, _ := conjStatistics(chans, nil, rel.NumRows())
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Value: count, CI: z * math.Sqrt(countVar)}, nil
}

// SumConj estimates sum(agg) under the conjunction of the given
// predicates.
func (e *Estimator) SumConj(rel *relation.Relation, agg string, preds ...Predicate) (Estimate, error) {
	chans, err := e.conjChannels(rel, preds)
	if err != nil {
		return Estimate{}, err
	}
	if rel.NumRows() == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	vals, err := rel.Numeric(agg)
	if err != nil {
		return Estimate{}, err
	}
	_, sum, _, sumVar := conjStatistics(chans, vals, rel.NumRows())
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{Value: sum, CI: z * math.Sqrt(sumVar)}, nil
}

// AvgConj estimates avg(agg) under the conjunction as the ratio of SumConj
// and CountConj with a delta-method interval.
func (e *Estimator) AvgConj(rel *relation.Relation, agg string, preds ...Predicate) (Estimate, error) {
	h, err := e.SumConj(rel, agg, preds...)
	if err != nil {
		return Estimate{}, err
	}
	c, err := e.CountConj(rel, preds...)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for the conjunction", ErrZeroEstimatedCount)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// DirectCountConj is the nominal conjunction count: the word-wise AND of
// the per-predicate match bitsets, answered by population count.
func DirectCountConj(rel *relation.Relation, preds ...Predicate) (float64, error) {
	b, err := conjBits(rel, preds)
	if err != nil {
		return 0, err
	}
	return float64(b.ones), nil
}

// DirectSumConj is the nominal conjunction sum over the intersected bitset.
func DirectSumConj(rel *relation.Relation, agg string, preds ...Predicate) (float64, error) {
	b, err := conjBits(rel, preds)
	if err != nil {
		return 0, err
	}
	vals, err := rel.Numeric(agg)
	if err != nil {
		return 0, err
	}
	s := 0.0
	for r, x := range vals {
		if x == x && b.get(r) {
			s += x
		}
	}
	return s, nil
}

// DirectAvgConj is the nominal conjunction average.
func DirectAvgConj(rel *relation.Relation, agg string, preds ...Predicate) (float64, error) {
	c, err := DirectCountConj(rel, preds...)
	if err != nil {
		return 0, err
	}
	if c == 0 {
		return 0, fmt.Errorf("estimator: no rows satisfy the conjunction")
	}
	s, err := DirectSumConj(rel, agg, preds...)
	if err != nil {
		return 0, err
	}
	return s / c, nil
}

// conjBits evaluates each predicate into a bitset and intersects them.
func conjBits(rel *relation.Relation, preds []Predicate) (*rowBits, error) {
	if len(preds) == 0 {
		return nil, fmt.Errorf("estimator: conjunction needs at least one predicate")
	}
	var acc *rowBits
	for _, pred := range preds {
		ix, err := rel.DiscreteIndex(pred.Attr)
		if err != nil {
			return nil, err
		}
		b := bitsFromSelection(ix.Codes, compileSelection(ix, pred))
		if acc == nil {
			acc = b
		} else {
			acc = acc.intersect(b)
		}
	}
	return acc, nil
}
