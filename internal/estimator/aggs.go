package estimator

import (
	"sync"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file is the per-code aggregate layer of the resident estimators. The
// Eq. 3/5/7 estimators, the Section 10 variance and the binned quantiles
// read the private relation only through per-value marginals — counts,
// sums, central moments and bin counts per distinct value, plus the column
// moments — so each table below is built once per view and every later
// query folds it in O(domain), memoized in the estimator's ChannelCache
// when one is attached (built per call otherwise).

// codeAggs holds one numeric column's non-NaN aggregates, per code of a
// discrete attribute's dictionary (sums and cell counts) and over the whole
// column.
type codeAggs struct {
	sums   []float64 // per code, accumulated in row order; nil without a dictionary
	nonNaN []uint32  // per code, non-NaN cells; nil without a dictionary
	n      int       // non-NaN cells
	total  float64   // row-order sum, stats.Sum's value

	col      []float64 // read again by the first moments and central calls
	varOnce  sync.Once
	mean     float64 // stats.Mean's value, once moments has run
	variance float64 // stats.Variance's value, once moments has run

	centralOnce sync.Once
	byCode      *codeMoments // once central has run

	binOnce sync.Once
	bins    *binTable // once binned has run
}

// codeMoments holds, per code, the non-NaN count and the central sums
// M2, M3 and M4 of the code's cells about its mean sums[c]/n[c], each
// accumulated in row order. Codes a one-shot build did not keep are zero.
// Without a dictionary there is one code, the whole column.
type codeMoments struct {
	sums       []float64 // the codeAggs sums, or the column total as code 0
	n          []float64
	m2, m3, m4 []float64
}

// buildCodeAggs makes one row-order pass; the variance, which needs two
// more, waits for the first moments call.
func buildCodeAggs(ix *relation.DiscreteIndex, col []float64) *codeAggs {
	var sums []float64
	var nonNaN []uint32
	var total float64
	n := 0
	if ix == nil {
		for _, x := range col {
			if x == x {
				total += x
				n++
			}
		}
	} else {
		sums, nonNaN = make([]float64, ix.N()), make([]uint32, ix.N())
		for i, c := range ix.Codes {
			if x := col[i]; x == x {
				sums[c] += x
				nonNaN[c]++
				total += x
				n++
			}
		}
	}
	return &codeAggs{sums: sums, nonNaN: nonNaN, n: n, total: total, col: col}
}

// valueTable is the per-value table of (attr, agg) that count, sum, avg
// and GROUP BY read, whichever source it was built from: attr's sorted
// domain with per-value row counts, per-value sums and counts of agg's
// non-NaN cells, and agg's column aggregates. attr "" builds a table for a
// whole column (ix nil), agg "" one for counts only (no sums).
type valueTable struct {
	ix   *relation.DiscreteIndex // Domain and Counts; Codes only on a resident relation
	rows float64                 // S, the relation's row count
	sums []float64               // per code, accumulated in row order
	// nonNaNs holds agg's non-NaN cells per code. It is nil, with sums set,
	// for statistics that do not record them and whose column has NULLs.
	nonNaNs []uint32
	total   float64 // agg's non-NaN sum in row order
	nonNaN  int     // agg's non-NaN cells
	// moments returns agg's column mean and variance, or stats.ErrEmpty
	// when every cell is NaN.
	moments func() (mean, variance float64, err error)
}

// tableSource builds the tables: a resident relation or Statistics.
type tableSource interface {
	valueTable(c *ChannelCache, attr, agg string) (valueTable, error)
	binTable(e *Estimator, attr, agg string) (*binTable, error)
}

// resident is a relation as a tableSource: its dictionary and the
// memoized per-code aggregates.
type resident struct{ rel *relation.Relation }

func (r resident) valueTable(c *ChannelCache, attr, agg string) (valueTable, error) {
	t := valueTable{rows: float64(r.rel.NumRows())}
	if attr != "" {
		var err error
		if t.ix, err = r.rel.DiscreteIndex(attr); err != nil {
			return valueTable{}, err
		}
	}
	if agg != "" {
		a, err := columnAggs(c, r.rel, t.ix, attr, agg)
		if err != nil {
			return valueTable{}, err
		}
		t.sums, t.nonNaNs, t.total, t.nonNaN, t.moments = a.sums, a.nonNaN, a.total, a.n, a.moments
	}
	return t, nil
}

// binTable bins agg with the released edges, grouped by attr's dictionary
// (attr "" for the column alone), on the memoized per-code entry.
func (r resident) binTable(e *Estimator, attr, agg string) (*binTable, error) {
	l, err := e.binLayout(agg)
	if err != nil {
		return nil, err
	}
	var ix *relation.DiscreteIndex
	if attr != "" {
		if ix, err = r.rel.DiscreteIndex(attr); err != nil {
			return nil, err
		}
	}
	a, err := columnAggs(e.Cache, r.rel, ix, attr, agg)
	if err != nil {
		return nil, err
	}
	return a.binned(ix, l), nil
}

// count is the number of rows sel matches: S for every code, otherwise an
// O(domain) sum over the per-code row counts.
func (t *valueTable) count(sel selection) float64 {
	return countCodes(t.ix.Counts, t.rows, sel)
}

// countCodes sums the per-code counts over sel, whose total is all.
func countCodes(counts []uint32, all float64, sel selection) float64 {
	if sel.all {
		return all
	}
	n := 0
	for _, c := range sel.codes {
		n += int(counts[c])
	}
	return float64(n)
}

// fold sums the per-code sums over sel and over its complement, adding in
// ascending code order, which is the sorted-value order on every source.
func (t *valueTable) fold(sel selection) (matched, complement float64) {
	for c, s := range t.sums {
		if sel.has(uint32(c)) {
			matched += s
		} else {
			complement += s
		}
	}
	return matched, complement
}

// columnAggs returns the aggregates of agg grouped by ix (attr's
// dictionary), or ungrouped when ix is nil.
func columnAggs(c *ChannelCache, rel *relation.Relation, ix *relation.DiscreteIndex, attr, agg string) (*codeAggs, error) {
	col, err := rel.Numeric(agg)
	if err != nil {
		return nil, err
	}
	return memo(c, entryKey{kindPerCode, attr, agg}, sourceOf(ix, col, nil), func() *codeAggs {
		return buildCodeAggs(ix, col)
	}), nil
}

// moments returns the column's mean and variance, or stats.ErrEmpty when
// every cell is NaN.
func (a *codeAggs) moments() (mean, variance float64, err error) {
	if a.n == 0 {
		return 0, 0, stats.ErrEmpty
	}
	a.varOnce.Do(func() {
		a.mean = a.total / float64(a.n)
		a.variance, _ = stats.Variance(a.col)
	})
	return a.mean, a.variance, nil
}

// binned returns the column's bin table over layout l, building it on the
// first call in one row pass that places each non-NaN cell as the
// collector does (l's placement). ix must be the dictionary a was grouped
// by.
func (a *codeAggs) binned(ix *relation.DiscreteIndex, l *binLayout) *binTable {
	a.binOnce.Do(func() {
		nb := len(l.edges) - 1
		t := &binTable{ix: ix, edges: l.edges, labels: l.labels, hist: make([]int, nb)}
		if ix != nil {
			t.byCode = make([]uint32, ix.N()*nb)
		}
		for i, x := range a.col {
			if x == x {
				k := l.bin(x)
				t.hist[k]++
				if ix != nil {
					t.byCode[int(ix.Codes[i])*nb+k]++
				}
			}
		}
		debugCheckBins(t, a.nonNaN)
		a.bins = t
	})
	return a.bins
}

// central returns the per-code moments, building them on the first call in
// two row passes (counts, then the central sums about each code's mean)
// for the codes in keep. ix must be the dictionary a was grouped by.
func (a *codeAggs) central(ix *relation.DiscreteIndex, keep selection) *codeMoments {
	a.centralOnce.Do(func() {
		var codes []uint32
		sums := []float64{a.total}
		if ix != nil {
			codes, sums = ix.Codes, a.sums
		}
		a.byCode = buildCodeMoments(codes, a.col, sums, keep)
	})
	return a.byCode
}

// buildCodeMoments accumulates the moments of the codes in keep; codes is
// nil for a single ungrouped code. Rows of the other codes accumulate,
// branch-free, into four discarded slots past the last code, chosen by the
// row's index so consecutive discarded rows do not chain on one slot.
func buildCodeMoments(codes []uint32, col, sums []float64, keep selection) *codeMoments {
	k := len(sums)
	type route struct{ slot, lane int }
	routes := make([]route, k)
	for c := range routes {
		routes[c] = route{k, 3}
		if keep.has(uint32(c)) {
			routes[c] = route{c, 0}
		}
	}
	n := make([]float64, k+4)
	for i, x := range col {
		if x == x {
			r := routes[rowCode(codes, i)]
			n[r.slot+(i&r.lane)]++
		}
	}
	mean := make([]float64, k+4)
	for c := range sums {
		if n[c] > 0 {
			mean[c] = sums[c] / n[c]
		}
	}
	m2, m3, m4 := make([]float64, k+4), make([]float64, k+4), make([]float64, k+4)
	for i, x := range col {
		if x == x {
			r := routes[rowCode(codes, i)]
			s := r.slot + (i & r.lane)
			d := x - mean[s]
			d2 := d * d
			m2[s] += d2
			m3[s] += d2 * d
			m4[s] += d2 * d2
		}
	}
	return &codeMoments{sums: sums, n: n[:k], m2: m2[:k], m3: m3[:k], m4: m4[:k]}
}

// rowCode is row i's code, or 0 without a dictionary.
func rowCode(codes []uint32, i int) uint32 {
	if codes == nil {
		return 0
	}
	return codes[i]
}

// fold combines the selected codes' moments, in ascending code order, into
// the matched non-NaN count n and the second and fourth central moments
// (means) about the matched mean μ. With δ = mean_c − μ, code c adds
// M2 + n·δ² to Σ(x−μ)² and M4 + 4δ·M3 + 6δ²·M2 + n·δ⁴ to Σ(x−μ)⁴.
func (m *codeMoments) fold(sel selection) (n, m2, m4 float64) {
	var total float64
	for c, k := range m.n {
		if k > 0 && sel.has(uint32(c)) {
			n += k
			total += m.sums[c]
		}
	}
	if n == 0 {
		return 0, 0, 0
	}
	mu := total / n
	for c, k := range m.n {
		if k > 0 && sel.has(uint32(c)) {
			d := m.sums[c]/k - mu
			d2 := d * d
			m2 += m.m2[c] + k*d2
			m4 += m.m4[c] + 4*d*m.m3[c] + 6*d2*m.m2[c] + k*d2*d2
		}
	}
	return n, m2 / n, m4 / n
}

// matchedMoments returns the non-NaN count of agg over the rows satisfying
// pred (all rows when pred.Match is nil) and those cells' second and fourth
// central moments, folded from the memoized per-code moments.
func matchedMoments(c *ChannelCache, rel *relation.Relation, agg string, pred Predicate) (n, m2, m4 float64, err error) {
	ix, attr, sel, keep, err := selectRows(c, rel, pred)
	if err != nil {
		return 0, 0, 0, err
	}
	a, err := columnAggs(c, rel, ix, attr, agg)
	if err != nil {
		return 0, 0, 0, err
	}
	n, m2, m4 = a.central(ix, keep).fold(sel)
	return n, m2, m4, nil
}

// selectRows resolves pred over rel: the dictionary it selects by and the
// attribute a table is keyed under (nil and "" when pred.Match is nil, which
// selects every row), the selection, and the codes a table built for this
// call keeps. A cached table serves every later predicate, so it keeps
// every code; a one-shot build keeps only the selected ones.
func selectRows(c *ChannelCache, rel *relation.Relation, pred Predicate) (ix *relation.DiscreteIndex, attr string, sel, keep selection, err error) {
	sel = selection{all: true}
	if pred.Match != nil {
		if ix, err = rel.DiscreteIndex(pred.Attr); err != nil {
			return nil, "", selection{}, selection{}, err
		}
		attr, sel = pred.Attr, compileSelection(ix, pred)
	}
	keep = sel
	if c != nil {
		keep = selection{all: true}
	}
	return ix, attr, sel, keep, nil
}

// binMoments holds per-bin (n, Σy, Σy²) of a numeric column y over the bins
// of a column x, counting rows where both cells are non-NaN.
type binMoments struct {
	n            []int
	sums, sumsqs []float64
}

// buildBinMoments places each row's x cell with layout l.
func buildBinMoments(l *binLayout, xs, ys []float64) *binMoments {
	nb := len(l.edges) - 1
	m := &binMoments{n: make([]int, nb), sums: make([]float64, nb), sumsqs: make([]float64, nb)}
	for i, x := range xs {
		y := ys[i]
		if x != x || y != y {
			continue
		}
		k := l.bin(x)
		m.n[k]++
		m.sums[k] += y
		m.sumsqs[k] += y * y
	}
	return m
}
