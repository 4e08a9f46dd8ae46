package estimator

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

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
//
// A row's weight depends only on its tuple of observed codes, so every sum
// above groups by joint cell: ĉ = Σ_cells w·n, Σw² = Σ_cells w²·n, and the
// sum terms read each cell's Σx and Σx². Both sources fold a jointTable —
// built in one row pass per view on the resident path, converted once from
// the recorded JointStats over statistics — through jointTable.fold, in
// ascending code-tuple order, which over sorted dictionaries is the
// sorted-value order. The nominal estimator's identity channel weighs
// every cell 1 or 0.

// jointTable is the joint distribution of k discrete attributes, sorted by
// name: its cells in ascending code-tuple order, each with its row count
// and, when built over a numeric column, that column's moments.
type jointTable struct {
	ixs   []*relation.DiscreteIndex // the dictionaries the codes index
	codes [][]uint32                // codes[i][j]: attribute i's code in cell j
	n     []float64                 // rows per cell
	x     *cellMoments              // nil for a count-only table
}

// cellMoments holds one numeric column's per-cell non-NaN sum, sum of
// squares and count, each accumulated in row order.
type cellMoments struct {
	sums, sumSqs, nonNaN []float64
}

// conjSums is a folded conjunction: its count and sum estimates and their
// CLT variances, and the count estimate over the rows with a non-NaN
// aggregate cell, which avg divides by, and its variance.
type conjSums struct{ count, sum, countVar, sumVar, nonNaN, nonNaNVar float64 }

// conjunct is one conjunct compiled over its attribute's dictionary ix
// (nil over statistics): its selection and its inverse-channel weights.
type conjunct struct {
	attr          string
	ix            *relation.DiscreteIndex
	sel           selection
	wTrue, wFalse float64
}

// weight is the conjunct's weight of code c.
func (k conjunct) weight(c uint32) float64 {
	if k.sel.has(c) {
		return k.wTrue
	}
	return k.wFalse
}

// fold accumulates the conjunction statistics with the weights of ks[i],
// the conjunct on attribute i, and the moments x (nil: the count terms
// only). rows is the relation's row count S. Zero-weight cells contribute
// nothing to the count and sum terms, so a nominal fold skips the
// unmatched cells.
func (t *jointTable) fold(ks []conjunct, x *cellMoments, rows int) conjSums {
	var cAcc, hAcc, c2Acc, h2Acc, nAcc, n2Acc float64
	var sumRows float64 // rows with a non-NaN aggregate cell
	for j, n := range t.n {
		if x != nil {
			sumRows += x.nonNaN[j]
		}
		w := ks[0].weight(t.codes[0][j])
		for i := 1; i < len(ks); i++ {
			w *= ks[i].weight(t.codes[i][j])
		}
		if w == 0 {
			continue
		}
		cAcc += w * n
		c2Acc += w * w * n
		if x != nil {
			hAcc += w * x.sums[j]
			h2Acc += w * w * x.sumSqs[j]
			nAcc += w * x.nonNaN[j]
			n2Acc += w * w * x.nonNaN[j]
		}
	}
	s := conjSums{count: cAcc, sum: hAcc, countVar: max(0, c2Acc-cAcc*cAcc/float64(rows)), nonNaN: nAcc}
	if sumRows > 0 {
		s.sumVar = max(0, h2Acc-hAcc*hAcc/sumRows)
		s.nonNaNVar = max(0, n2Acc-nAcc*nAcc/sumRows)
	}
	return s
}

// buildJoint makes the joint table of the dictionaries ixs (over col when
// non-nil) in one row pass. When the code space Π|D_i| is no larger than
// the row count it accumulates into a dense mixed-radix array, otherwise
// into a map keyed by the big-endian code tuple; either way only the
// non-empty cells are kept.
func buildJoint(ixs []*relation.DiscreteIndex, col []float64) *jointTable {
	rows := len(ixs[0].Codes)
	size := 1
	for _, ix := range ixs {
		if n := ix.N(); n == 0 || size > rows/n {
			return buildSparseJoint(ixs, col)
		}
		size *= ix.N()
	}
	acc := make([]cellAcc, size)
	m := 0 // non-empty cells
	for r := 0; r < rows; r++ {
		cell := 0
		for _, ix := range ixs {
			cell = cell*len(ix.Domain) + int(ix.Codes[r])
		}
		if acc[cell].n == 0 {
			m++
		}
		acc[cell].add(col, r)
	}
	keep := make([]int, 0, m)
	for cell := range acc {
		if acc[cell].n > 0 {
			keep = append(keep, cell)
		}
	}
	t := newJointTable(ixs, acc, keep, col != nil)
	for j, cell := range keep {
		for i := len(ixs) - 1; i >= 0; i-- {
			t.codes[i][j] = uint32(cell % ixs[i].N())
			cell /= ixs[i].N()
		}
	}
	return t
}

// buildSparseJoint is buildJoint's path for a code space larger than the
// row count.
func buildSparseJoint(ixs []*relation.DiscreteIndex, col []float64) *jointTable {
	rows, k := len(ixs[0].Codes), len(ixs)
	cells := make(map[string]int)
	var acc []cellAcc
	var tuples []uint32 // cell j's code tuple at [j*k, (j+1)*k)
	key := make([]byte, 4*k)
	for r := 0; r < rows; r++ {
		for i, ix := range ixs {
			binary.BigEndian.PutUint32(key[4*i:], ix.Codes[r])
		}
		cell, ok := cells[string(key)]
		if !ok {
			cell = len(acc)
			cells[string(key)] = cell
			acc = append(acc, cellAcc{})
			for _, ix := range ixs {
				tuples = append(tuples, ix.Codes[r])
			}
		}
		acc[cell].add(col, r)
	}
	order := make([]int, len(acc))
	for j := range order {
		order[j] = j
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(tuples[a*k:(a+1)*k], tuples[b*k:(b+1)*k])
	})
	t := newJointTable(ixs, acc, order, col != nil)
	for j, cell := range order {
		for i := range ixs {
			t.codes[i][j] = tuples[cell*k+i]
		}
	}
	return t
}

// cellAcc accumulates one cell during a build: its row count and the
// column's non-NaN sum, sum of squares and count.
type cellAcc struct{ n, sum, sumSq, nonNaN float64 }

// add counts row r of col (nil: count only).
func (a *cellAcc) add(col []float64, r int) {
	a.n++
	if col != nil {
		if x := col[r]; x == x {
			a.sum += x
			a.sumSq += x * x
			a.nonNaN++
		}
	}
}

// newJointTable lays out the accumulated cells listed in order, leaving
// their codes to the caller.
func newJointTable(ixs []*relation.DiscreteIndex, acc []cellAcc, order []int, moments bool) *jointTable {
	m := len(order)
	t := &jointTable{ixs: ixs, codes: make([][]uint32, len(ixs)), n: make([]float64, m)}
	for i := range ixs {
		t.codes[i] = make([]uint32, m)
	}
	if moments {
		t.x = &cellMoments{sums: make([]float64, m), sumSqs: make([]float64, m), nonNaN: make([]float64, m)}
	}
	for j, cell := range order {
		a := &acc[cell]
		t.n[j] = a.n
		if moments {
			t.x.sums[j], t.x.sumSqs[j], t.x.nonNaN[j] = a.sum, a.sumSq, a.nonNaN
		}
	}
	return t
}

// jointFor returns the (possibly cached) joint table of the conjuncts'
// attributes and dictionaries (sorted by name), over col when agg is not
// "". memo checks the first dictionary and the column; a later dictionary
// replaced by a relation write is caught here and its table rebuilt.
func (c *ChannelCache) jointFor(ks []conjunct, agg string, col []float64) *jointTable {
	attrs, ixs := make([]string, len(ks)), make([]*relation.DiscreteIndex, len(ks))
	for i, k := range ks {
		attrs[i], ixs[i] = k.attr, k.ix
	}
	k := entryKey{kindJoint, strings.Join(attrs, "\x00"), agg}
	src := sourceOf(ixs[0], col, nil)
	build := func() *jointTable { return buildJoint(ixs, col) }
	t := memo(c, k, src, build)
	if !slices.Equal(t.ixs, ixs) {
		c.forget(k)
		t = memo(c, k, src, build)
	}
	return t
}

// conjWeight is a conjunct's inverse-channel weight: wTrue for a private
// value that satisfies it, wFalse otherwise (1 and 0 for the nominal
// estimator).
func (e *Estimator) conjWeight(pred Predicate) (wTrue, wFalse float64, err error) {
	ch, err := e.channel(pred)
	if err != nil {
		return 0, 0, err
	}
	if ch.denom <= 0 {
		return 0, 0, fmt.Errorf("estimator: p = %v on %q leaves no signal to invert", ch.p, pred.Attr)
	}
	return (1 - ch.tauN) / ch.denom, -ch.tauN / ch.denom, nil
}

// checkConj validates a conjunction's shape, shared by every source: at
// least one predicate, and at most one per attribute.
func checkConj(preds []Predicate) error {
	if len(preds) == 0 {
		return fmt.Errorf("estimator: conjunction needs at least one predicate")
	}
	seen := make(map[string]bool, len(preds))
	for _, pred := range preds {
		if seen[pred.Attr] {
			return fmt.Errorf("estimator: conjunction has two predicates on %q; combine them into one", pred.Attr)
		}
		seen[pred.Attr] = true
	}
	return nil
}

// residentConj validates a conjunction over rel, resolves each conjunct's
// weights and dictionary in the given order, and folds the joint table of
// its attributes (sorted by name): the count terms only when agg is "". An
// empty relation is rejected: the intervals need S > 0.
func (e *Estimator) residentConj(rel *relation.Relation, agg string, preds []Predicate) (conjSums, error) {
	if err := checkConj(preds); err != nil {
		return conjSums{}, err
	}
	ks := make([]conjunct, len(preds))
	for i, pred := range preds {
		wTrue, wFalse, err := e.conjWeight(pred)
		if err != nil {
			return conjSums{}, err
		}
		// The nil-means-match-all predicate contract holds here too: channel
		// resolves l = N for it and its selection matches every code.
		ix, err := rel.DiscreteIndex(pred.Attr)
		if err != nil {
			return conjSums{}, err
		}
		ks[i] = conjunct{pred.Attr, ix, compileSelection(ix, pred), wTrue, wFalse}
	}
	if rel.NumRows() == 0 {
		return conjSums{}, fmt.Errorf("estimator: empty relation")
	}
	var col []float64
	if agg != "" {
		var err error
		if col, err = rel.Numeric(agg); err != nil {
			return conjSums{}, err
		}
	}
	slices.SortFunc(ks, func(a, b conjunct) int { return strings.Compare(a.attr, b.attr) })
	t := e.Cache.jointFor(ks, agg, col)
	return t.fold(ks, t.x, rel.NumRows()), nil
}

// estimates turns folded conjunction sums into the count and sum
// estimates with their CLT intervals, passing on a fold's error.
func (e *Estimator) estimates(s conjSums, err error) (c, h Estimate, _ error) {
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, Estimate{}, err
	}
	return Estimate{Value: s.count, CI: z * math.Sqrt(s.countVar)}, Estimate{Value: s.sum, CI: z * math.Sqrt(s.sumVar)}, nil
}

// conjAvg is the ratio of the conjunction's sum estimate and its count
// estimate over the rows with a non-NaN aggregate cell (avg skips NULLs),
// with a delta-method interval.
func (e *Estimator) conjAvg(s conjSums, err error) (Estimate, error) {
	s.count, s.countVar = s.nonNaN, s.nonNaNVar
	c, h, err := e.estimates(s, err)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for the conjunction", ErrZeroEstimatedCount)
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// CountConj estimates count(1) under the conjunction of the given
// single-attribute predicates (each on a distinct discrete attribute).
// With one predicate it coincides with Count up to the confidence-interval
// formula.
func (e *Estimator) CountConj(rel *relation.Relation, preds ...Predicate) (Estimate, error) {
	c, _, err := e.estimates(e.residentConj(rel, "", preds))
	return c, err
}

// SumConj estimates sum(agg) under the conjunction of the given
// predicates.
func (e *Estimator) SumConj(rel *relation.Relation, agg string, preds ...Predicate) (Estimate, error) {
	_, h, err := e.estimates(e.residentConj(rel, agg, preds))
	return h, err
}

// AvgConj estimates avg(agg) under the conjunction as the ratio of SumConj
// and CountConj with a delta-method interval, both read from one fold.
func (e *Estimator) AvgConj(rel *relation.Relation, agg string, preds ...Predicate) (Estimate, error) {
	return e.conjAvg(e.residentConj(rel, agg, preds))
}
