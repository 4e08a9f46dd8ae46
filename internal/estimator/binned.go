package estimator

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"privateclean/internal/faults"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the binned-histogram estimators, on every source:
// quantiles/median and GROUP BY over binned numeric attributes.
//
// The provider releases a bin layout in the view metadata (NumericMeta.Lo,
// Bins; see privacy.NumericMeta.BinEdges). A resident relation bins its
// cells with it (codeAggs.binned, buildBinMoments) as the statistics
// collector does — overall (Statistics.Hist) and per discrete value
// (ValueStats.Bins) — into one bin table, and the estimator inverts the
// randomized-response channel bin by bin. Every cell goes through one
// placement per layout (binLayout, Collector.places), which guesses
// the bin by arithmetic on the uniform released bins and confirms it
// against the edges, falling back to a binary search (binIndex) on a miss.
// The channel inversion is:
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
	labels []string // per bin; nil renders them per call
	hist   []int    // per bin, agg's non-NaN cells
	byCode []uint32 // code c's count in bin k at c·len(hist)+k; nil ungrouped
}

// label is bin k's label.
func (t *binTable) label(k int) string {
	if t.labels != nil {
		return t.labels[k]
	}
	return binLabel(t.edges, k)
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
	for _, c := range sel.codes {
		for k, n := range t.byCode[int(c)*nb : int(c+1)*nb] {
			m[k] += float64(n)
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

// binLayout is a numeric attribute's released bin layout: the placement of
// cells into its edges and each bin's label, computed from meta.
type binLayout struct {
	placement
	meta   privacy.NumericMeta
	labels []string
}

// placement places numeric cells into the bins of one edge list (len >= 2,
// ascending): left-closed bins, the last closed on the right, values
// outside the edges clamped into the end bins — binIndex's rule. It
// guesses a cell's bin by arithmetic, as if the bins were uniform, keeps
// the guess when the edges confirm it and otherwise falls back to
// binIndex's search. Under strictly ascending edges the confirmation
// admits exactly one bin, so the placement is exact for any such layout;
// on the released uniform layout (privacy.NumericMeta.BinEdges) nearly
// every guess holds and a cell costs O(1).
type placement struct {
	edges []float64
	lo    float64 // edges[0]
	scale float64 // bins per unit of span; 0 guesses bin 0 for every cell
	last  int     // the last bin, len(edges)-2
}

// newPlacement prepares edges for placement. Edges that are not strictly
// ascending over a finite span get no guess beyond bin 0, which the
// confirmation admits only below edges[1]; binIndex places the rest.
func newPlacement(edges []float64) placement {
	p := placement{edges: edges, lo: edges[0], last: len(edges) - 2}
	scale := float64(len(edges)-1) / (edges[len(edges)-1] - edges[0])
	if scale > 0 && !math.IsInf(scale, 1) && strictlyAscending(edges) {
		p.scale = scale
	}
	return p
}

// bin returns the bin of x, which must not be NaN. The guess is clamped
// into [0, last] before the int conversion, so ±Inf and huge cells are
// safe, and the confirmation applies the same clamps: bin 0 takes every
// cell below edges[1], the last bin every cell from edges[last] up.
func (p *placement) bin(x float64) int {
	k := 0
	if f := (x - p.lo) * p.scale; f >= float64(p.last) {
		k = p.last
	} else if f > 0 {
		k = int(f)
	}
	if (k == 0 || p.edges[k] <= x) && (k == p.last || x < p.edges[k+1]) {
		debugCheckPlacement(p.edges, x, k)
		return k
	}
	return binIndex(p.edges, x)
}

// strictlyAscending reports whether every edge exceeds the one before it.
func strictlyAscending(edges []float64) bool {
	for i := 1; i < len(edges); i++ {
		if !(edges[i] > edges[i-1]) {
			return false
		}
	}
	return true
}

// binIndex places x into the bin layout of edges (len >= 2, ascending) by
// binary search: left-closed bins, last bin closed on the right,
// out-of-range values clamped into the end bins. It defines the rule a
// placement follows, and places the cells whose arithmetic guess misses.
func binIndex(edges []float64, x float64) int {
	i := sort.SearchFloat64s(edges, x)
	k := i - 1
	if i < len(edges) && edges[i] == x {
		k = i
	}
	if k < 0 {
		k = 0
	}
	if k > len(edges)-2 {
		k = len(edges) - 2
	}
	return k
}

// binLayout returns the bin layout the provider released for a numeric
// attribute, or a typed error naming the flag that releases one. With a
// cache attached it is computed once per attribute's metadata.
func (e *Estimator) binLayout(attr string) (*binLayout, error) {
	if e.Meta == nil {
		return nil, fmt.Errorf("estimator: nil view metadata")
	}
	nm, ok := e.Meta.Numeric[attr]
	if !ok {
		return nil, fmt.Errorf("estimator: no metadata for numeric attribute %q", attr)
	}
	if nm.Bins <= 0 {
		return nil, faults.Errorf(faults.ErrBadQuery,
			"estimator: the release records no bin layout for %q; re-run 'privateclean privatize' with -bins to publish one", attr)
	}
	return e.Cache.layout(attr, nm), nil
}

// layout returns attr's bin layout under nm, computing it on the first
// call and whenever nm changes; a nil cache computes it on every call.
func (c *ChannelCache) layout(attr string, nm privacy.NumericMeta) *binLayout {
	if c != nil {
		if l, ok := c.layouts.Load(attr); ok && l.(*binLayout).meta == nm {
			return l.(*binLayout)
		}
	}
	l := &binLayout{placement: newPlacement(nm.BinEdges()), meta: nm, labels: make([]string, nm.Bins)}
	for k := range l.labels {
		l.labels[k] = binLabel(l.edges, k)
	}
	if c != nil {
		c.layouts.Store(attr, l)
	}
	return l
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
		if ch, err = invertible(e.channel(pred)); err != nil {
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
		out[k] = BinEstimate{Lo: t.edges[k], Hi: t.edges[k+1], Label: t.label(k), Est: Estimate{Value: float64(c), CI: ci}}
	}
	return out, nil
}

// GroupBinSums answers sum(agg) GROUP BY bin(attr) over the resident
// relation from the per-bin count, sum, and squared sum of agg over rows
// whose attr cell is binnable (both cells non-NaN), with a CLT interval
// z·sqrt(n_k·var_k) per bin.
func (e *Estimator) GroupBinSums(rel *relation.Relation, attr, agg string) ([]BinEstimate, error) {
	return e.groupBins(rel, attr, agg, func(n, sum, _, v, z float64) (Estimate, bool) {
		return Estimate{Value: sum, CI: z * math.Sqrt(n*v)}, true
	})
}

// GroupBinAvgs answers avg(agg) GROUP BY bin(attr) over the resident
// relation. Bins with no binnable rows are omitted, mirroring GroupAvgs'
// treatment of empty groups.
func (e *Estimator) GroupBinAvgs(rel *relation.Relation, attr, agg string) ([]BinEstimate, error) {
	out, err := e.groupBins(rel, attr, agg, func(n, _, mu, v, z float64) (Estimate, bool) {
		return Estimate{Value: mu, CI: z * math.Sqrt(v/n)}, n > 0
	})
	if err == nil && len(out) == 0 {
		return nil, fmt.Errorf("estimator: no bin of %q has rows with a non-NaN %q cell", attr, agg)
	}
	return out, err
}

// groupBins answers a binned GROUP BY from agg's per-bin moments over
// attr's released layout, in bin order: est gets a bin's binnable rows,
// their sum, mean and variance (both 0 in an empty bin) and the z-score,
// and leaves the bin out by returning false.
func (e *Estimator) groupBins(rel *relation.Relation, attr, agg string, est func(n, sum, mu, v, z float64) (Estimate, bool)) ([]BinEstimate, error) {
	l, m, err := e.groupBinMoments(rel, attr, agg)
	if err != nil {
		return nil, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return nil, err
	}
	out := make([]BinEstimate, 0, len(m.n))
	for k, n := range m.n {
		nk, mu, v := float64(n), 0.0, 0.0
		if n > 0 {
			mu = m.sums[k] / nk
			if v = m.sumsqs[k]/nk - mu*mu; v < 0 {
				v = 0
			}
		}
		if g, ok := est(nk, m.sums[k], mu, v, z); ok {
			out = append(out, BinEstimate{Lo: l.edges[k], Hi: l.edges[k+1], Label: l.labels[k], Est: g})
		}
	}
	return out, nil
}

// groupBinMoments returns attr's released bin edges and the per-bin
// moments of agg over them, the table every binned GROUP BY reads.
func (e *Estimator) groupBinMoments(rel *relation.Relation, attr, agg string) (*binLayout, *binMoments, error) {
	l, err := e.binLayout(attr)
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
		return buildBinMoments(l, xs, ys)
	})
	return l, m, nil
}
