package estimator

import (
	"fmt"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
)

// Conjunction estimation over sufficient statistics. A recorded pairwise
// joint distribution (JointStats, the -conj spec) carries everything the
// conjunction estimators of conjunction.go need: each JointStats is
// converted once into a jointTable over the sorted values of A and B, and
// folded by the same jointTable.fold as the resident path's table. The
// cells come out in sorted (va, vb) order, which is the resident path's
// code-tuple order, so two-attribute answers are bit-identical across
// sources and deterministic across collector window sizes. Exactly two
// distinct attributes are supported: the store records pairwise joints
// only.

// statsJoint is a JointStats as a joint table, with the cell moments of
// every numeric column the cells record.
type statsJoint struct {
	jointTable
	x map[string]*cellMoments
}

// joint returns j as a joint table, converting it on first use.
func (j *JointStats) joint() *statsJoint {
	if t := j.table.Load(); t != nil {
		return t
	}
	t := convertJoint(j)
	j.table.Store(t)
	return t
}

func convertJoint(j *JointStats) *statsJoint {
	vas := sortedKeys(j.Cells)
	seen := make(map[string]bool)
	for _, row := range j.Cells {
		for vb := range row {
			seen[vb] = true
		}
	}
	vbs := sortedKeys(seen)
	codeB := make(map[string]uint32, len(vbs))
	for c, vb := range vbs {
		codeB[vb] = uint32(c)
	}
	t := &statsJoint{
		jointTable: jointTable{ixs: []*relation.DiscreteIndex{{Domain: vas}, {Domain: vbs}}, codes: make([][]uint32, 2)},
		x:          make(map[string]*cellMoments),
	}
	var cells []*JointCell
	for a, va := range vas {
		row := j.Cells[va]
		for _, vb := range sortedKeys(row) {
			cell := row[vb]
			if cell == nil {
				continue
			}
			t.codes[0] = append(t.codes[0], uint32(a))
			t.codes[1] = append(t.codes[1], codeB[vb])
			t.n = append(t.n, float64(cell.Count))
			cells = append(cells, cell)
		}
	}
	aggs := make(map[string]bool)
	for _, cell := range cells {
		for agg := range cell.Sums {
			aggs[agg] = true
		}
		for agg := range cell.NonNaN {
			aggs[agg] = true
		}
	}
	for agg := range aggs {
		m := &cellMoments{sums: make([]float64, len(cells)), sumSqs: make([]float64, len(cells)), nonNaN: make([]float64, len(cells))}
		for k, cell := range cells {
			m.sums[k] = cell.Sums[agg]
			m.sumSqs[k] = cell.SumSqs[agg]
			m.nonNaN[k] = float64(cell.NonNaN[agg])
		}
		t.x[agg] = m
	}
	return t
}

// statsConj resolves a two-attribute conjunction against st's recorded
// joint and folds it with the conjuncts' weights: the count terms only when
// agg is "". Statistics over no rows are rejected: the intervals need
// S > 0.
func (e *Estimator) statsConj(st *Statistics, agg string, preds []Predicate) (conjSums, error) {
	if len(preds) != 2 {
		return conjSums{}, faults.Errorf(faults.ErrBadQuery,
			"estimator: conjunctions over statistics support exactly two distinct attributes, got %d; query the view with -in/-col instead", len(preds))
	}
	if err := checkConj(preds); err != nil {
		return conjSums{}, err
	}
	pa, pb := preds[0], preds[1]
	if pb.Attr < pa.Attr {
		pa, pb = pb, pa
	}
	j, ok := st.Joint(pa.Attr, pb.Attr)
	if !ok {
		return conjSums{}, faults.Errorf(faults.ErrBadQuery,
			"estimator: statistics record no joint distribution for %q and %q; re-run 'privateclean stats' with -conj %s,%s, or query the view with -in/-col",
			pa.Attr, pb.Attr, pa.Attr, pb.Attr)
	}
	t := j.joint()
	ks := make([]conjunct, 2)
	for i, pred := range []Predicate{pa, pb} {
		wTrue, wFalse, err := e.conjWeight(pred)
		if err != nil {
			return conjSums{}, err
		}
		ks[i] = conjunct{sel: compileSelection(t.ixs[i], pred), wTrue: wTrue, wFalse: wFalse}
	}
	if st.Rows == 0 {
		return conjSums{}, fmt.Errorf("estimator: empty relation")
	}
	var x *cellMoments // nil, like a column no cell recorded, folds no sum terms
	if agg != "" {
		if _, err := st.moments(agg); err != nil {
			return conjSums{}, err
		}
		x = t.x[agg]
	}
	return t.fold(ks, x, st.Rows), nil
}

// CountConjStats is CountConj over sufficient statistics: count(1) under a
// two-attribute conjunction, answered from the recorded pairwise joint.
func (e *Estimator) CountConjStats(st *Statistics, preds ...Predicate) (Estimate, error) {
	c, _, err := e.estimates(e.statsConj(st, "", preds))
	return c, err
}

// SumConjStats is SumConj over sufficient statistics.
func (e *Estimator) SumConjStats(st *Statistics, agg string, preds ...Predicate) (Estimate, error) {
	_, h, err := e.estimates(e.statsConj(st, agg, preds))
	return h, err
}

// AvgConjStats is AvgConj over sufficient statistics: the ratio of the sum
// and count estimates with a delta-method interval.
func (e *Estimator) AvgConjStats(st *Statistics, agg string, preds ...Predicate) (Estimate, error) {
	return e.conjAvg(e.statsConj(st, agg, preds))
}
