package estimator

import (
	"errors"
	"fmt"
	"math"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the binned-histogram estimators, on every source:
// quantiles/median and GROUP BY over binned numeric attributes.
//
// The provider releases a bin layout in the view metadata (NumericMeta.Lo,
// Bins; see privacy.NumericMeta.BinEdges). A resident relation bins its
// cells with it (codeAggs.binned) as the statistics collector does —
// overall (Statistics.Hist) and per discrete value (ValueStats.Bins) — into
// one bin table, and the estimator inverts the randomized-response channel
// bin by bin:
//
//	ĉ_k = (m_k − t_k·τ_n) / (τ_p − τ_n)
//
// where m_k is the observed matched count in bin k and t_k the bin's total.
// Each bin is its own Eq. 3 instance: the discrete channel randomizes the
// predicate attribute independently of the numeric cell, so conditioning on
// "row lands in bin k" leaves the channel constants unchanged. Negative
// inverted counts (sampling noise around empty bins) clamp at 0.
//
// The quantile is the inverse CDF of the unbiased bin counts with linear
// interpolation inside the crossed bin (stats.HistQuantileBin). Its interval
// comes from the delta method on the cumulative count at the crossing
// point x̂:
//
//	Var(x̂) ≈ Var(Ĉ(x̂)) / f̂(x̂)²,  Var(Ĉ) ≈ S·s_p(1−s_p)/(τ_p−τ_n)²
//
// with s_p the observed matched fraction up to x̂ and f̂ = ĉ_k/width_k the
// estimated density in the crossed bin.
//
// The quantile point estimate carries two sources of systematic error the
// channel inversion cannot remove: discretization (resolved by the bin
// width) and the Laplace noise convolution on the numeric cells themselves
// (median-zero, so bounded for central quantiles; not deconvolved). The
// statistical suite asserts unbiasedness against the binned inverse-CDF of
// the true matched histogram, which isolates the channel inversion — the
// part this file owns.

// binTable is the bin table of a numeric column agg, whichever source it
// was built from: the released edges, the histogram of agg's non-NaN cells
// and, grouped by a discrete attribute, each code's bin counts.
type binTable struct {
	ix     *relation.DiscreteIndex // the grouping dictionary; nil ungrouped
	edges  []float64
	hist   []int    // per bin, agg's non-NaN cells
	byCode []uint32 // code c's count in bin k at c·len(hist)+k; nil ungrouped
}

// matched returns the bin counts of the codes sel selects: the column
// histogram when it selects every code.
func (t *binTable) matched(sel selection) []float64 {
	nb := len(t.hist)
	m := make([]float64, nb)
	if sel.all {
		for k, c := range t.hist {
			m[k] = float64(c)
		}
		return m
	}
	for c := 0; c < t.ix.N(); c++ {
		if sel.has(uint32(c)) {
			for k, n := range t.byCode[c*nb : (c+1)*nb] {
				m[k] += float64(n)
			}
		}
	}
	return m
}

// binTable builds the (attr, agg) bin table from the recorded histograms,
// memoized until the next Add; attr "" reads the column histogram alone.
func (st *Statistics) binTable(_ *Estimator, attr, agg string) (*binTable, error) {
	h, ok := st.Hist[agg]
	if !ok {
		if _, numeric := st.Numeric[agg]; !numeric {
			return nil, fmt.Errorf("estimator: no statistics for numeric attribute %q", agg)
		}
		return nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: statistics for %q record no binned histogram; re-run 'privateclean stats' with -meta so the released bin edges are collected, or query the view with -in/-col", agg)
	}
	if attr == "" {
		return &binTable{edges: h.Edges, hist: h.Counts}, nil
	}
	key := [2]string{attr, agg}
	if t, ok := st.bins.Load(key); ok {
		return t.(*binTable), nil
	}
	ix, err := st.index(attr)
	if err != nil {
		return nil, err
	}
	nb := len(h.Counts)
	t := &binTable{ix: ix, edges: h.Edges, hist: h.Counts, byCode: make([]uint32, ix.N()*nb)}
	for c, v := range ix.Domain {
		bins := st.Discrete[attr][v].Bins[agg]
		if len(bins) != 0 && len(bins) != nb {
			return nil, faults.Errorf(faults.ErrBadMeta,
				"estimator: statistics record %d bins of %q for %s = %q, and %d in its histogram", len(bins), agg, attr, v, nb)
		}
		for k, n := range bins {
			t.byCode[c*nb+k] = uint32(n)
		}
	}
	debugCheckBins(t, nil)
	memo, _ := st.bins.LoadOrStore(key, t)
	return memo.(*binTable), nil
}

// binEdges returns the bin layout the provider released for a numeric
// attribute, or a typed error naming the flag that releases one.
func (e *Estimator) binEdges(attr string) ([]float64, error) {
	if e.Meta == nil {
		return nil, fmt.Errorf("estimator: nil view metadata")
	}
	nm, ok := e.Meta.Numeric[attr]
	if !ok {
		return nil, fmt.Errorf("estimator: no metadata for numeric attribute %q", attr)
	}
	edges := nm.BinEdges()
	if edges == nil {
		return nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: the release records no bin layout for %q; re-run 'privateclean privatize' with -bins to publish one", attr)
	}
	return edges, nil
}

// Median is Percentile at q = 0.5.
func (e *Estimator) Median(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	return e.percentile(resident{rel}, agg, pred, 0.5)
}

// Percentile estimates the q-th quantile (q in [0,1]) of agg over rows
// satisfying pred: the relation's cells binned with the released edges,
// channel-inverted bin counts, inverse CDF, delta-method interval.
func (e *Estimator) Percentile(rel *relation.Relation, agg string, pred Predicate, q float64) (Estimate, error) {
	return e.percentile(resident{rel}, agg, pred, q)
}

// MedianStats is PercentileStats at q = 0.5.
func (e *Estimator) MedianStats(st *Statistics, agg string, pred Predicate) (Estimate, error) {
	return e.percentile(st, agg, pred, 0.5)
}

// PercentileStats is Percentile over sufficient statistics collected with
// the released edges.
func (e *Estimator) PercentileStats(st *Statistics, agg string, pred Predicate, q float64) (Estimate, error) {
	return e.percentile(st, agg, pred, q)
}

// percentile is the one quantile body behind both sources: q is checked
// first, then pred's channel (none for the whole column), then src's table.
func (e *Estimator) percentile(src tableSource, agg string, pred Predicate, q float64) (Estimate, error) {
	if !(q >= 0 && q <= 1) {
		return Estimate{}, fmt.Errorf("estimator: percentile %v out of [0,1]", q)
	}
	ch, attr := channelVal{denom: 1}, ""
	if !pred.isTotal() {
		var err error
		if ch, err = e.invertible(pred); err != nil {
			return Estimate{}, err
		}
		attr = pred.Attr
	}
	t, err := src.binTable(e, attr, agg)
	if err != nil {
		return Estimate{}, err
	}
	est, err := e.quantileEstimate(ch, t.edges, t.matched(compileSelection(t.ix, pred)), t.hist, q)
	if errors.Is(err, stats.ErrEmpty) && attr != "" {
		err = fmt.Errorf("%w for %s", ErrZeroEstimatedCount, pred)
	}
	return est, err
}

// quantileEstimate is the binned quantile math: invert the channel over
// the observed matched count of each bin out of the bin's total, then read
// the q-th quantile and its delta-method interval off the inverted counts.
func (e *Estimator) quantileEstimate(ch channelVal, edges, matched []float64, hist []int, q float64) (Estimate, error) {
	unbiased := make([]float64, len(hist))
	var total, sumU float64
	for k, c := range hist {
		unbiased[k] = math.Max(0, (matched[k]-float64(c)*ch.tauN)/ch.denom)
		total += float64(c)
		sumU += unbiased[k]
	}
	val, bin, err := stats.HistQuantileBin(edges, unbiased, q)
	if err != nil {
		return Estimate{}, err
	}
	var cumU, cumM float64
	for k := 0; k < bin; k++ {
		cumU += unbiased[k]
		cumM += matched[k]
	}
	frac := 0.0
	if unbiased[bin] > 0 {
		frac = (q*sumU - cumU) / unbiased[bin]
	}
	frac = math.Min(1, math.Max(0, frac))
	sp := (cumM + frac*matched[bin]) / total
	density := unbiased[bin] / (edges[bin+1] - edges[bin])
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	ci := 0.0
	if density > 0 {
		ci = z * math.Sqrt(total*sp*(1-sp)) / ch.denom / density
	}
	return Estimate{Value: val, CI: ci}, nil
}

// BinEstimate is one bucket of a binned GROUP BY: the bin's range, its
// shared display label, and the estimate. Results are returned in bin order
// (not sorted by label), which is the order both the CLI and the server
// emit.
type BinEstimate struct {
	Lo, Hi float64
	Label  string
	Est    Estimate
}

// binLabel renders a bin's half-open range; the last bin is closed.
func binLabel(edges []float64, k int) string {
	if k == len(edges)-2 {
		return fmt.Sprintf("[%g, %g]", edges[k], edges[k+1])
	}
	return fmt.Sprintf("[%g, %g)", edges[k], edges[k+1])
}

// GroupBinCounts answers count(1) GROUP BY bin(attr) over the resident
// relation, binning the private numeric column with the released edges.
func (e *Estimator) GroupBinCounts(rel *relation.Relation, attr string) ([]BinEstimate, error) {
	return e.groupBinCounts(resident{rel}, attr)
}

// GroupBinCountsStats is GroupBinCounts over sufficient statistics. The
// collector binned with the same released edges, so the counts — and
// therefore the estimates — are identical to GroupBinCounts over the
// relation the statistics summarize.
func (e *Estimator) GroupBinCountsStats(st *Statistics, attr string) ([]BinEstimate, error) {
	return e.groupBinCounts(st, attr)
}

// groupBinCounts wraps attr's column histogram with a multinomial sampling
// interval: count_k ± z·sqrt(n·p̂(1−p̂)). The counts are direct (the
// numeric channel adds noise to the values, not the counts; the Laplace
// convolution across bin boundaries is a property of the release, not a
// bias this estimator can remove).
func (e *Estimator) groupBinCounts(src tableSource, attr string) ([]BinEstimate, error) {
	t, err := src.binTable(e, "", attr)
	if err != nil {
		return nil, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range t.hist {
		n += c
	}
	out := make([]BinEstimate, len(t.hist))
	for k, c := range t.hist {
		ci := 0.0
		if n > 0 {
			p := float64(c) / float64(n)
			ci = z * math.Sqrt(float64(n)*p*(1-p))
		}
		out[k] = BinEstimate{Lo: t.edges[k], Hi: t.edges[k+1], Label: binLabel(t.edges, k), Est: Estimate{Value: float64(c), CI: ci}}
	}
	return out, nil
}

// GroupBinSums answers sum(agg) GROUP BY bin(attr) over the resident
// relation from the per-bin count, sum, and squared sum of agg over rows
// whose attr cell is binnable (both cells non-NaN), with a CLT interval
// z·sqrt(n_k·var_k) per bin.
func (e *Estimator) GroupBinSums(rel *relation.Relation, attr, agg string) ([]BinEstimate, error) {
	edges, m, err := e.groupBinMoments(rel, attr, agg)
	if err != nil {
		return nil, err
	}
	n, sums, sumsqs := m.n, m.sums, m.sumsqs
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return nil, err
	}
	out := make([]BinEstimate, len(n))
	for k := range n {
		ci := 0.0
		if n[k] > 0 {
			nk := float64(n[k])
			mu := sums[k] / nk
			v := sumsqs[k]/nk - mu*mu
			if v < 0 {
				v = 0
			}
			ci = z * math.Sqrt(nk*v)
		}
		out[k] = BinEstimate{Lo: edges[k], Hi: edges[k+1], Label: binLabel(edges, k), Est: Estimate{Value: sums[k], CI: ci}}
	}
	return out, nil
}

// GroupBinAvgs answers avg(agg) GROUP BY bin(attr) over the resident
// relation. Bins with no binnable rows are omitted, mirroring GroupAvgs'
// treatment of empty groups.
func (e *Estimator) GroupBinAvgs(rel *relation.Relation, attr, agg string) ([]BinEstimate, error) {
	edges, m, err := e.groupBinMoments(rel, attr, agg)
	if err != nil {
		return nil, err
	}
	n, sums, sumsqs := m.n, m.sums, m.sumsqs
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return nil, err
	}
	out := make([]BinEstimate, 0, len(n))
	for k := range n {
		if n[k] == 0 {
			continue
		}
		nk := float64(n[k])
		mu := sums[k] / nk
		v := sumsqs[k]/nk - mu*mu
		if v < 0 {
			v = 0
		}
		out = append(out, BinEstimate{Lo: edges[k], Hi: edges[k+1], Label: binLabel(edges, k),
			Est: Estimate{Value: mu, CI: z * math.Sqrt(v/nk)}})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("estimator: no bin of %q has rows with a non-NaN %q cell", attr, agg)
	}
	return out, nil
}

// groupBinMoments returns attr's released bin edges and the per-bin
// moments of agg over them, the table every binned GROUP BY reads.
func (e *Estimator) groupBinMoments(rel *relation.Relation, attr, agg string) ([]float64, *binMoments, error) {
	edges, err := e.binEdges(attr)
	if err != nil {
		return nil, nil, err
	}
	xs, err := rel.Numeric(attr)
	if err != nil {
		return nil, nil, err
	}
	ys, err := rel.Numeric(agg)
	if err != nil {
		return nil, nil, err
	}
	m := memo(e.Cache, entryKey{kindBin, attr, agg}, sourceOf(nil, xs, ys), func() *binMoments {
		return buildBinMoments(edges, xs, ys)
	})
	return edges, m, nil
}
