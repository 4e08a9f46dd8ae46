package estimator

import (
	"errors"
	"fmt"
	"math"

	"privateclean/internal/faults"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// This file implements the binned-histogram estimators: DP quantiles/median
// over the sufficient-statistics store and GROUP BY over binned numeric
// attributes.
//
// The provider releases a bin layout in the view metadata (NumericMeta.Lo,
// Bins; see privacy.NumericMeta.BinEdges), the statistics collector counts
// private cells per bin — overall (Statistics.Hist) and per discrete value
// (ValueStats.Bins) — and the estimator inverts the randomized-response
// channel bin by bin:
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
// (median-zero, so bounded for central quantiles). The statistical suite
// asserts unbiasedness against the binned inverse-CDF of the true matched
// histogram, which isolates the channel inversion — the part this file owns.

// histogram returns the binned layout of a numeric attribute, or a typed
// error naming the flag that records one.
func (st *Statistics) histogram(agg string) (*Histogram, error) {
	if h, ok := st.Hist[agg]; ok {
		return h, nil
	}
	if _, ok := st.Numeric[agg]; !ok {
		return nil, fmt.Errorf("estimator: no statistics for numeric attribute %q", agg)
	}
	return nil, faults.Errorf(faults.ErrBadQuery,
		"estimator: statistics for %q record no binned histogram; re-run 'privateclean stats' with -meta so the released bin edges are collected, or query the view with -in/-col", agg)
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

// binnedMatched accumulates the observed matched count per bin for pred over
// the recorded per-value bin counts, plus the per-bin totals.
func (st *Statistics) binnedMatched(h *Histogram, agg string, pred Predicate) ([]float64, error) {
	vs, ok := st.Discrete[pred.Attr]
	if !ok {
		return nil, fmt.Errorf("estimator: no statistics for discrete attribute %q", pred.Attr)
	}
	matched := make([]float64, len(h.Counts))
	for _, v := range sortedKeys(vs) {
		if pred.Match != nil && !pred.Match(v) {
			continue
		}
		for k, c := range vs[v].Bins[agg] {
			matched[k] += float64(c)
		}
	}
	return matched, nil
}

// PercentileStats estimates the q-th quantile (q in [0,1]) of agg over rows
// satisfying pred from the binned sufficient statistics: channel-inverted
// bin counts, inverse CDF, delta-method interval. A zero-value pred (no
// WHERE) skips the inversion and uses the raw histogram.
func (e *Estimator) PercentileStats(st *Statistics, agg string, pred Predicate, q float64) (Estimate, error) {
	h, err := st.histogram(agg)
	if err != nil {
		return Estimate{}, err
	}
	nb := len(h.Counts)
	matched := make([]float64, nb)
	unbiased := make([]float64, nb)
	denom := 1.0
	if pred.Attr == "" {
		for k, c := range h.Counts {
			matched[k] = float64(c)
			unbiased[k] = float64(c)
		}
	} else {
		ch, err := e.invertible(pred)
		if err != nil {
			return Estimate{}, err
		}
		denom = ch.denom
		matched, err = st.binnedMatched(h, agg, pred)
		if err != nil {
			return Estimate{}, err
		}
		for k := range unbiased {
			u := (matched[k] - float64(h.Counts[k])*ch.tauN) / ch.denom
			if u < 0 {
				u = 0
			}
			unbiased[k] = u
		}
	}
	val, bin, err := stats.HistQuantileBin(h.Edges, unbiased, q)
	if err != nil {
		if errors.Is(err, stats.ErrEmpty) && pred.Attr != "" {
			return Estimate{}, fmt.Errorf("%w for %s", ErrZeroEstimatedCount, pred)
		}
		return Estimate{}, err
	}
	// Delta-method interval through the crossed bin's density.
	total := 0.0
	for _, c := range h.Counts {
		total += float64(c)
	}
	var sumU float64
	for _, u := range unbiased {
		sumU += u
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
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	sp := (cumM + frac*matched[bin]) / total
	width := h.Edges[bin+1] - h.Edges[bin]
	density := unbiased[bin] / width
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	ci := 0.0
	if density > 0 {
		ci = z * math.Sqrt(total*sp*(1-sp)) / denom / density
	}
	return Estimate{Value: val, CI: ci}, nil
}

// MedianStats is PercentileStats at q = 0.5.
func (e *Estimator) MedianStats(st *Statistics, agg string, pred Predicate) (Estimate, error) {
	return e.PercentileStats(st, agg, pred, 0.5)
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

// binCountEstimates wraps per-bin counts with a multinomial sampling
// interval: count_k ± z·sqrt(n·p̂(1−p̂)). The counts are direct (the
// numeric channel adds noise to the values, not the counts; the Laplace
// convolution across bin boundaries is a property of the release, not a
// bias this estimator can remove).
func (e *Estimator) binCountEstimates(edges []float64, counts []int, n int) ([]BinEstimate, error) {
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return nil, err
	}
	out := make([]BinEstimate, len(counts))
	for k, c := range counts {
		ci := 0.0
		if n > 0 {
			p := float64(c) / float64(n)
			ci = z * math.Sqrt(float64(n)*p*(1-p))
		}
		out[k] = BinEstimate{Lo: edges[k], Hi: edges[k+1], Label: binLabel(edges, k), Est: Estimate{Value: float64(c), CI: ci}}
	}
	return out, nil
}

// GroupBinCounts answers count(1) GROUP BY bin(attr) over the resident
// relation, binning the private numeric column with the released edges.
func (e *Estimator) GroupBinCounts(rel *relation.Relation, attr string) ([]BinEstimate, error) {
	edges, m, err := e.groupBinMoments(rel, attr, attr)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range m.n {
		n += c
	}
	return e.binCountEstimates(edges, m.n, n)
}

// GroupBinCountsStats answers count(1) GROUP BY bin(attr) over sufficient
// statistics. The collector binned with the same released edges, so the
// counts — and therefore the estimates — are identical to GroupBinCounts
// over the relation the statistics summarize.
func (e *Estimator) GroupBinCountsStats(st *Statistics, attr string) ([]BinEstimate, error) {
	h, err := st.histogram(attr)
	if err != nil {
		return nil, err
	}
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return e.binCountEstimates(h.Edges, h.Counts, n)
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
