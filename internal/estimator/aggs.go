package estimator

import (
	"slices"
	"sync"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file is the per-code aggregate layer of the resident estimators. The
// Eq. 3/5/7 estimators and the Section 10 variance read the private
// relation only through per-value marginals — counts, sums and central
// moments per distinct value, plus the column moments — so each table below
// is built once per view and every later query folds it in O(domain),
// memoized in the estimator's ChannelCache when one is attached (built per
// call otherwise).

// codeAggs holds one numeric column's non-NaN aggregates, per code of a
// discrete attribute's dictionary (sums) and over the whole column.
type codeAggs struct {
	sums  []float64 // per code, accumulated in row order; nil without a dictionary
	n     int       // non-NaN cells
	total float64   // row-order sum, stats.Sum's value

	col      []float64 // read again by the first moments and central calls
	varOnce  sync.Once
	mean     float64 // stats.Mean's value, once moments has run
	variance float64 // stats.Variance's value, once moments has run

	centralOnce sync.Once
	byCode      *codeMoments // once central has run
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
		sums = make([]float64, ix.N())
		for i, c := range ix.Codes {
			if x := col[i]; x == x {
				sums[c] += x
				total += x
				n++
			}
		}
	}
	return &codeAggs{sums: sums, n: n, total: total, col: col}
}

// perCode returns attr's dictionary and the per-code aggregates of agg over
// it.
func perCode(c *ChannelCache, rel *relation.Relation, attr, agg string) (*relation.DiscreteIndex, *codeAggs, error) {
	ix, err := rel.DiscreteIndex(attr)
	if err != nil {
		return nil, nil, err
	}
	a, err := columnAggs(c, rel, ix, attr, agg)
	return ix, a, err
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

// fold sums the per-code sums over sel and over its complement, adding in
// ascending code order — the sorted-value order Statistics.sumMatches uses,
// so both paths fold the same sums in the same order.
func (a *codeAggs) fold(sel selection) (matched, complement float64) {
	for c, s := range a.sums {
		if sel.has(uint32(c)) {
			matched += s
		} else {
			complement += s
		}
	}
	return matched, complement
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

func buildBinMoments(edges, xs, ys []float64) *binMoments {
	nb := len(edges) - 1
	m := &binMoments{n: make([]int, nb), sums: make([]float64, nb), sumsqs: make([]float64, nb)}
	for i, x := range xs {
		y := ys[i]
		if x != x || y != y {
			continue
		}
		k := binIndex(edges, x)
		m.n[k]++
		m.sums[k] += y
		m.sumsqs[k] += y * y
	}
	return m
}

// codeRuns holds one numeric column's non-NaN cells grouped by code and
// sorted ascending within each code: code c's run is vals[off[c]:off[c+1]].
// Without a dictionary there is one run, the whole column sorted.
type codeRuns struct {
	off  []int
	vals []float64
}

// buildCodeRuns keeps the cells of the codes in keep only; the runs of the
// other codes are empty.
func buildCodeRuns(ix *relation.DiscreteIndex, col []float64, keep selection) *codeRuns {
	n := 1
	if ix != nil {
		n = ix.N()
	}
	code := func(i int) uint32 {
		if ix == nil {
			return 0
		}
		return ix.Codes[i]
	}
	off := make([]int, n+1)
	for i, x := range col {
		if c := code(i); x == x && keep.has(c) {
			off[c+1]++
		}
	}
	for c := 0; c < n; c++ {
		off[c+1] += off[c]
	}
	vals := make([]float64, off[n])
	next := slices.Clone(off[:n])
	for i, x := range col {
		if c := code(i); x == x && keep.has(c) {
			vals[next[c]] = x
			next[c]++
		}
	}
	for c := 0; c < n; c++ {
		slices.Sort(vals[off[c]:off[c+1]])
	}
	return &codeRuns{off: off, vals: vals}
}

// merge returns the selected codes' cells in ascending order: a pairwise
// bottom-up merge of their runs, O(m·log k) for m cells in k runs. The
// result may alias the runs and must not be written.
func (r *codeRuns) merge(sel selection) []float64 {
	var runs [][]float64
	total := 0
	for c := 0; c+1 < len(r.off); c++ {
		if lo, hi := r.off[c], r.off[c+1]; hi > lo && sel.has(uint32(c)) {
			runs = append(runs, r.vals[lo:hi])
			total += hi - lo
		}
	}
	var bufs [2][]float64
	for level := 0; len(runs) > 1; level++ {
		if bufs[level&1] == nil {
			bufs[level&1] = make([]float64, 0, total)
		}
		dst := bufs[level&1][:0]
		next := runs[:0]
		for i := 0; i < len(runs); i += 2 {
			start := len(dst)
			if i+1 < len(runs) {
				dst = mergeTwo(dst, runs[i], runs[i+1])
			} else {
				dst = append(dst, runs[i]...)
			}
			next = append(next, dst[start:])
		}
		runs = next
	}
	if len(runs) == 0 {
		return nil
	}
	return runs[0]
}

// mergeTwo appends the ascending merge of a and b to dst.
func mergeTwo(dst, a, b []float64) []float64 {
	for len(a) > 0 && len(b) > 0 {
		if b[0] < a[0] {
			dst, b = append(dst, b[0]), b[1:]
		} else {
			dst, a = append(dst, a[0]), a[1:]
		}
	}
	return append(append(dst, a...), b...)
}

// sortedMatched returns the non-NaN agg cells of rows satisfying pred (all
// rows when pred.Match is nil) in ascending order, merged from the memoized
// sorted runs. The result must not be written.
func sortedMatched(c *ChannelCache, rel *relation.Relation, agg string, pred Predicate) ([]float64, error) {
	col, err := rel.Numeric(agg)
	if err != nil {
		return nil, err
	}
	ix, attr, sel, keep, err := selectRows(c, rel, pred)
	if err != nil {
		return nil, err
	}
	runs := memo(c, entryKey{kindRuns, attr, agg}, sourceOf(ix, col, nil), func() *codeRuns {
		return buildCodeRuns(ix, col, keep)
	})
	return runs.merge(sel), nil
}
