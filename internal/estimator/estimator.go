// Package estimator implements query-result estimation on (cleaned) private
// relations — Sections 5, 6, and 7 of the PrivateClean paper.
//
// Two estimators are provided for sum/count/avg queries with a
// single-discrete-attribute predicate:
//
//   - PrivateClean: the bias-corrected estimator. Randomized response makes
//     a predicate's truth a noisy channel with deterministic flip
//     probabilities τ_p = (1-p) + p·l/N (true positive) and τ_n = p·l/N
//     (false positive), where N is the dirty-domain size and l the
//     predicate's selectivity in distinct values on the dirty domain.
//     Inverting the channel yields unbiased count (Eq. 3) and sum (Eq. 5)
//     estimators; avg is their conditionally-unbiased ratio (Eq. 7). After
//     cleaning, l is recovered from the value provenance graph as a
//     (weighted) vertex cut (Sections 6.3, 7.2).
//
//   - Direct: run the query on the private relation and report the nominal
//     result. Unbiased without a predicate (GRR noise is zero-mean) but
//     biased by Õ(privacy·(skew+merge)) with one (Proposition 2). It is the
//     corrected estimator at p = 0, the identity channel (Nominal).
//
// All estimates carry CLT confidence intervals per Section 5.
//
// Every estimator takes a Predicate; the zero Predicate (no attribute, nil
// Match) is a query without WHERE, the whole column. As in SQL, avg skips
// NULL (NaN) aggregate cells.
package estimator

import (
	"errors"
	"fmt"
	"math"

	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// ErrZeroEstimatedCount reports that a corrected count estimate is exactly
// zero, so the ratio (avg) estimator is undefined. Callers that want to skip
// such groups (GroupAvgs) branch on it with errors.Is; every other error is
// a genuine failure and must propagate.
var ErrZeroEstimatedCount = errors.New("estimator: estimated count is zero")

// Estimate is a point estimate with a symmetric confidence interval
// half-width at the estimator's confidence level.
type Estimate struct {
	Value float64
	// CI is the half-width of the confidence interval: the true value lies
	// in [Value-CI, Value+CI] with the configured confidence (asymptotic).
	CI float64
}

// Lo returns the lower end of the confidence interval.
func (e Estimate) Lo() float64 { return e.Value - e.CI }

// Hi returns the upper end of the confidence interval.
func (e Estimate) Hi() float64 { return e.Value + e.CI }

// String renders the estimate as "value ± ci".
func (e Estimate) String() string { return fmt.Sprintf("%.6g ± %.3g", e.Value, e.CI) }

// Estimator is the PrivateClean bias-corrected estimator, parameterized by
// the view metadata released with the private relation and (optionally) the
// provenance recorded while cleaning it.
type Estimator struct {
	// Meta is the GRR metadata for the private view (required).
	Meta *privacy.ViewMeta
	// Prov records cleaning provenance. May be nil when no cleaning
	// happened; predicates are then evaluated against the released dirty
	// domains directly.
	Prov *provenance.Store
	// Confidence is the confidence level for intervals (default 0.95).
	Confidence float64
	// UnweightedCut, when true, computes the provenance vertex cut without
	// edge weights (the "PC-U" ablation of Figure 7). The default weighted
	// cut is correct for multi-attribute cleaning.
	UnweightedCut bool
	// Cache, when non-nil, memoizes resolved channels (p, N, l) and the
	// per-view aggregate tables across queries. Results are identical with
	// or without it. Attach one (NewChannelCache) only while Meta, Prov, and
	// the relation's columns are not being mutated — the long-lived
	// query-serving case: a rewritten discrete column is detected, an
	// in-place numeric write is not. The cache itself is safe for
	// concurrent use.
	Cache *ChannelCache

	nominal bool // the identity channel; see Nominal
}

// Nominal returns the Direct estimator: the query run as-is on the private
// data. It is the corrected estimator over the identity channel (p = 0, so
// τ_n = 0 and τ_p − τ_n = 1), under which Eq. 3/5/7 and the per-bin
// inversion return the private count, sum, average and bin counts, and var
// keeps the injected noise (b = 0). Every entry point answers as e's does,
// without Prov and reading of Meta only the bin layout, so it also
// evaluates an unbinned query exactly on a non-private relation. It shares
// e's Meta, Cache and Confidence; its channels are never cached.
func (e *Estimator) Nominal() *Estimator {
	return &Estimator{Meta: e.Meta, Cache: e.Cache, Confidence: e.Confidence, nominal: true}
}

// channel resolves everything the corrected estimators need about a
// predicate: the randomization probability p of the governing attribute,
// the dirty-domain size N, the predicate's dirty-domain selectivity l, and
// the mechanism's inversion constants (tauN, denom) at that point. With a
// Cache attached, resolved channels are served read-through (the resolution
// walks the provenance graph, so a resident server amortizes it across
// requests). The nominal channel is the identity, resolved before the
// cache so it never enters it.
func (e *Estimator) channel(pred Predicate) (channelVal, error) {
	if e.nominal {
		return channelVal{denom: 1}, nil
	}
	key, cacheable := predCacheKey(pred)
	if !cacheable || e.Cache == nil {
		return e.resolveChannel(pred)
	}
	return cachedChannel(e.Cache, key.attr, key.desc, func() (channelVal, error) { return e.resolveChannel(pred) })
}

// eqChannel is Eq(attr, v)'s invertible channel for GROUP BY, keyed by
// Eq's rendering written into *buf, so a cached channel builds no predicate
// and a group shares its entry with WHERE attr = v.
func (e *Estimator) eqChannel(buf *[]byte, attr, v string) (channelVal, error) {
	if e.nominal || e.Cache == nil {
		return invertible(e.channel(Eq(attr, v)))
	}
	*buf = appendEqDesc((*buf)[:0], attr, v)
	return invertible(cachedChannel(e.Cache, attr, *buf, func() (channelVal, error) { return e.resolveChannel(Eq(attr, v)) }))
}

// resolveChannel is the uncached channel resolution.
func (e *Estimator) resolveChannel(pred Predicate) (channelVal, error) {
	if e.Meta == nil {
		return channelVal{}, fmt.Errorf("estimator: nil view metadata")
	}
	attr := pred.Attr
	base := attr
	if e.Prov != nil {
		base = e.Prov.BaseAttr(attr)
	}
	meta, err := e.Meta.DiscreteFor(base)
	if err != nil {
		return channelVal{}, err
	}
	p, err := meta.GRRP()
	if err != nil {
		return channelVal{}, fmt.Errorf("estimator: attribute %q: %w", base, err)
	}
	n := meta.N()
	if n == 0 {
		return channelVal{}, fmt.Errorf("estimator: attribute %q has an empty domain", base)
	}
	// A nil Match means match-all (the package-wide contract): the predicate
	// selects the whole clean domain, whose dirty-domain selectivity is N.
	match := pred.Match
	if match == nil {
		match = func(string) bool { return true }
	}
	l := 0.0
	resolved := false
	if e.Prov != nil {
		if g, ok := e.Prov.Graph(attr); ok {
			if e.UnweightedCut {
				l = g.UnweightedSelectivity(match)
			} else {
				l = g.Selectivity(match)
			}
			resolved = true
		}
	}
	if !resolved {
		// No cleaning recorded for this attribute: the clean domain is the
		// dirty domain, so count matching distinct values directly.
		for _, v := range meta.Domain {
			if match(v) {
				l++
			}
		}
	}
	tauN, denom := privacy.Channel(p, n, l)
	return channelVal{p: meta.P, n: n, l: l, tauN: tauN, denom: denom}, nil
}

func (e *Estimator) confidence() float64 {
	if e.Confidence == 0 {
		return 0.95
	}
	return e.Confidence
}

// invertible passes on a resolved channel, rejecting one with no signal to
// invert (τ_p = τ_n).
func invertible(ch channelVal, err error) (channelVal, error) {
	if err == nil && ch.denom <= 0 {
		err = fmt.Errorf("estimator: p = %v leaves no signal to invert (τ_p = τ_n)", ch.p)
	}
	return ch, err
}

// Count implements the Eq. 3 count estimator:
//
//	ĉ = (c_private − S·τ_n) / (τ_p − τ_n),  τ_p − τ_n = 1 − p
//
// with the Section 5.4 confidence interval
//
//	ĉ ± z · (1/(1−p)) · sqrt(S·s_p·(1−s_p)).
//
// The zero predicate counts the whole relation: S, which GRR does not
// perturb, with a zero interval.
func (e *Estimator) Count(rel *relation.Relation, pred Predicate) (Estimate, error) {
	return e.count(resident{rel}, pred)
}

func (e *Estimator) count(src tableSource, pred Predicate) (Estimate, error) {
	if pred.isTotal() {
		t, err := src.valueTable(e.Cache, "", "")
		return Estimate{Value: t.rows}, err
	}
	ch, t, sel, err := e.selectValues(src, "", pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.countEstimate(ch, t.count(sel), t.rows)
}

// selectValues resolves pred's channel, rejecting one with no signal, then
// builds the (pred.Attr, agg) table from src and compiles pred over it.
func (e *Estimator) selectValues(src tableSource, agg string, pred Predicate) (channelVal, valueTable, selection, error) {
	ch, err := invertible(e.channel(pred))
	if err != nil {
		return channelVal{}, valueTable{}, selection{}, err
	}
	t, err := src.valueTable(e.Cache, pred.Attr, agg)
	if err != nil {
		return channelVal{}, valueTable{}, selection{}, err
	}
	return ch, t, compileSelection(t.ix, pred), nil
}

// countEstimate is the Eq. 3 scalar math: invert the channel over the
// observed private count cPriv out of s rows. The mechanism enters only
// through the precomputed (tauN, denom) constants, p·l/N and 1-p at the
// mapped GRR p.
func (e *Estimator) countEstimate(ch channelVal, cPriv, s float64) (Estimate, error) {
	if s == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	est := (cPriv - s*ch.tauN) / ch.denom

	sp := cPriv / s
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	ci := z / ch.denom * math.Sqrt(s*sp*(1-sp))
	return Estimate{Value: est, CI: ci}, nil
}

// Sum implements the Eq. 5 sum estimator. The single equation for the
// predicate's sum has two unknowns (the target c·μ_true and the nuisance
// μ_false), so the estimator also evaluates the complement query and solves
// the resulting linear system:
//
//	ĥ = ((1 − τ_n)·h_p − τ_n·h_p^c) / (τ_p − τ_n)
//
// The confidence interval follows Section 5.5:
//
//	ĥ ± (2z/(1−p)) · sqrt(S·(s_p(1−s_p)·μ_p² + σ_p²))
//
// where μ_p and σ_p² are the mean and variance of the aggregate column in
// the private relation (the 1/(1−p) factor carries the channel inversion
// into the interval, matching the paper's analytic bound in Eq. 6).
//
// The zero predicate sums the whole column with the Direct estimator
// (unbiased per Section 5.1: GRR noise is zero-mean), its interval
// z·sqrt(S·σ_p²) reflecting the injected Laplace noise and sampling
// variance.
func (e *Estimator) Sum(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	return e.sum(resident{rel}, agg, pred)
}

func (e *Estimator) sum(src tableSource, agg string, pred Predicate) (Estimate, error) {
	if pred.isTotal() {
		return e.total(src, agg, func(t valueTable, _, variance, z float64) Estimate {
			return Estimate{Value: t.total, CI: z * math.Sqrt(t.rows*variance)}
		})
	}
	ch, t, sel, err := e.selectValues(src, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	muP, varP, err := e.spread(t)
	if err != nil {
		return Estimate{}, err
	}
	hp, hpc := t.fold(sel)
	return e.sumEstimate(ch, hp, hpc, t.count(sel), t.rows, muP, varP)
}

// total answers a whole-column aggregate of agg from src: est renders it
// from the column's mean and variance and the interval's z-score.
func (e *Estimator) total(src tableSource, agg string, est func(t valueTable, mean, variance, z float64) Estimate) (Estimate, error) {
	t, err := src.valueTable(e.Cache, "", agg)
	if err != nil {
		return Estimate{}, err
	}
	mean, variance, err := t.moments()
	if err != nil {
		return Estimate{}, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	return est(t, mean, variance, z), nil
}

// spread passes on the aggregate column's mean and variance, which scale a
// sum's interval, after rejecting an empty relation. A column with no
// non-NaN cell has neither: the corrected estimators refuse it, while the
// query run as-is sums nothing there, so the nominal estimator answers it
// with a zero spread.
func (e *Estimator) spread(t valueTable) (mean, variance float64, err error) {
	if t.rows == 0 {
		return 0, 0, fmt.Errorf("estimator: empty relation")
	}
	mean, variance, err = t.moments()
	if e.nominal && errors.Is(err, stats.ErrEmpty) {
		return 0, 0, nil
	}
	return mean, variance, err
}

// sumEstimate is the Eq. 5 scalar math: hp/hpc are the private sums over
// the predicate and its complement, cPriv the private matching count, s
// the row count, muP/varP the aggregate column's private mean and variance.
func (e *Estimator) sumEstimate(ch channelVal, hp, hpc, cPriv, s, muP, varP float64) (Estimate, error) {
	if s == 0 {
		return Estimate{}, fmt.Errorf("estimator: empty relation")
	}
	tauN := ch.tauN
	est := ((1-tauN)*hp - tauN*hpc) / ch.denom

	sp := cPriv / s
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	ci := 2 * z / ch.denom * math.Sqrt(s*(sp*(1-sp)*muP*muP+varP))
	return Estimate{Value: est, CI: ci}, nil
}

// SumIgnoringFalsePositives is the ablation of the Eq. 5 sum estimator
// that inverts only the true-positive attenuation and ignores the
// false-positive leakage:
//
//	ĥ_naive = h_p / τ_p
//
// Its bias is τ_n·(S−c)·μ_false/τ_p — it over-counts by the mass the
// randomization pushed *into* the predicate from non-matching rows, which
// is exactly the term the full estimator removes. Exposed for the
// ablation benchmarks. A whole column has no false positives, so the zero
// predicate answers as Sum does.
//
// (Note that the complement query itself carries no independent
// information: h_p + h_p^c is the column total, so Eq. 5 is algebraically
// identical to ĥ = (h_p − τ_n·S·μ_p)/(1−p). The design choice Eq. 5
// embodies is *subtracting the false-positive mass* — which this ablation
// omits — not the extra query per se.)
func (e *Estimator) SumIgnoringFalsePositives(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	src := resident{rel}
	if pred.isTotal() {
		return e.sum(src, agg, pred)
	}
	ch, err := e.channel(pred)
	if err != nil {
		return Estimate{}, err
	}
	t, err := src.valueTable(e.Cache, pred.Attr, agg)
	if err != nil {
		return Estimate{}, err
	}
	muP, varP, err := e.spread(t)
	if err != nil {
		return Estimate{}, err
	}
	tauP := ch.denom + ch.tauN
	if tauP <= 0 {
		return Estimate{}, fmt.Errorf("estimator: τ_p = %v leaves no signal to invert", tauP)
	}
	sel := compileSelection(t.ix, pred)
	hp, _ := t.fold(sel)
	sp := t.count(sel) / t.rows
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	ci := z / tauP * math.Sqrt(t.rows*(sp*(1-sp)*muP*muP+varP))
	return Estimate{Value: hp / tauP, CI: ci}, nil
}

// Avg implements the Section 5.6 avg estimator: the ratio ĥ/ĉ of the sum
// and count estimates (conditionally unbiased), with the delta-method
// confidence interval
//
//	|ĥ/ĉ| · sqrt((CI_sum/ĥ)² + (CI_count/ĉ)²)
//
// (Eq. 7 as printed in the paper reads error ≈ (1/ĉ)·err_sum/err_count,
// which is dimensionally inconsistent; we implement the standard
// error-propagation form it references [Oehlert 1992].)
//
// As in SQL, avg skips NULL (NaN) cells: it is the estimator above over
// the rows whose aggregate cell is non-NaN, so ĉ and S count those rows
// only. The zero predicate averages the whole column with the Direct
// estimator, with the interval z·sqrt(σ_p²/S).
func (e *Estimator) Avg(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	return e.avg(resident{rel}, agg, pred)
}

func (e *Estimator) avg(src tableSource, agg string, pred Predicate) (Estimate, error) {
	if pred.isTotal() {
		return e.total(src, agg, func(t valueTable, mean, variance, z float64) Estimate {
			return Estimate{Value: mean, CI: z * math.Sqrt(variance/float64(t.nonNaN))}
		})
	}
	ch, t, sel, err := e.selectValues(src, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	muP, varP, err := e.spread(t)
	if err != nil {
		return Estimate{}, err
	}
	if t.nonNaNs == nil {
		return Estimate{}, errNoNullCounts(agg)
	}
	hp, hpc := t.fold(sel)
	nonNaN := float64(t.nonNaN)
	est, err := e.ratio(ch, hp, hpc, countCodes(t.nonNaNs, nonNaN, sel), nonNaN, muP, varP)
	if errors.Is(err, ErrZeroEstimatedCount) {
		err = fmt.Errorf("%w for %s", err, pred)
	}
	return est, err
}

// ratio is the avg math shared by scalar and GROUP BY avg: the Eq. 5 sum
// over the Eq. 3 count, with the delta-method interval, where cPriv and s
// count the rows with a non-NaN aggregate cell. With no such row, or a
// zero count estimate, it is ErrZeroEstimatedCount.
func (e *Estimator) ratio(ch channelVal, hp, hpc, cPriv, s, muP, varP float64) (Estimate, error) {
	if s == 0 {
		return Estimate{}, ErrZeroEstimatedCount
	}
	h, err := e.sumEstimate(ch, hp, hpc, cPriv, s, muP, varP)
	if err != nil {
		return Estimate{}, err
	}
	c, err := e.countEstimate(ch, cPriv, s)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, ErrZeroEstimatedCount
	}
	v := h.Value / c.Value
	return Estimate{Value: v, CI: ratioCI(v, h, c)}, nil
}

// ratioCI is the delta-method interval for the ratio v = ĥ/ĉ. The relative
// form |v|·sqrt((CI_sum/ĥ)² + (CI_count/ĉ)²) is undefined at ĥ = 0 — dropping
// the sum term there would collapse the interval to zero exactly where the
// sum estimate is least certain — so at ĥ = 0 the algebraically equivalent
// absolute form sqrt(CI_sum² + v²·CI_count²)/|ĉ| is used, which degrades
// continuously to CI_sum/|ĉ|.
func ratioCI(v float64, h, c Estimate) float64 {
	if h.Value == 0 {
		return math.Hypot(h.CI, v*c.CI) / math.Abs(c.Value)
	}
	rel2 := (h.CI/h.Value)*(h.CI/h.Value) + (c.CI/c.Value)*(c.CI/c.Value)
	return math.Abs(v) * math.Sqrt(rel2)
}

// GroupCounts estimates count(1) ... GROUP BY attr: one corrected count per
// distinct value of attr in the (cleaned) private relation. This powers the
// TPC-DS experiment's GROUP BY queries (Section 8.3.4).
func (e *Estimator) GroupCounts(rel *relation.Relation, attr string) (map[string]Estimate, error) {
	return e.groupCounts(resident{rel}, attr)
}

func (e *Estimator) groupCounts(src tableSource, attr string) (map[string]Estimate, error) {
	return e.groupBy(src, attr, "", func(ch channelVal, t valueTable, c int, _, _ float64) (Estimate, error) {
		return e.countEstimate(ch, float64(t.ix.Counts[c]), t.rows)
	})
}

// GroupSums estimates sum(agg) ... GROUP BY attr: one corrected sum per
// distinct value of attr in the (cleaned) private relation, every group
// read from one per-value table. A group's complement sum is the column
// total minus the group's sum.
func (e *Estimator) GroupSums(rel *relation.Relation, attr, agg string) (map[string]Estimate, error) {
	return e.groupSums(resident{rel}, attr, agg)
}

func (e *Estimator) groupSums(src tableSource, attr, agg string) (map[string]Estimate, error) {
	return e.groupBy(src, attr, agg, func(ch channelVal, t valueTable, c int, muP, varP float64) (Estimate, error) {
		hp := t.sums[c]
		return e.sumEstimate(ch, hp, t.total-hp, float64(t.ix.Counts[c]), t.rows, muP, varP)
	})
}

// GroupAvgs estimates avg(agg) ... GROUP BY attr with the corrected ratio
// estimator per group, from the same per-value table as GroupSums.
// Groups whose estimated count is zero are omitted; every other failure
// (missing aggregate column, bad metadata) propagates.
func (e *Estimator) GroupAvgs(rel *relation.Relation, attr, agg string) (map[string]Estimate, error) {
	return e.groupAvgs(resident{rel}, attr, agg)
}

func (e *Estimator) groupAvgs(src tableSource, attr, agg string) (map[string]Estimate, error) {
	out, err := e.groupBy(src, attr, agg, func(ch channelVal, t valueTable, c int, muP, varP float64) (Estimate, error) {
		if t.nonNaNs == nil {
			return Estimate{}, errNoNullCounts(agg)
		}
		hp := t.sums[c]
		return e.ratio(ch, hp, t.total-hp, float64(t.nonNaNs[c]), float64(t.nonNaN), muP, varP)
	})
	if err == nil && len(out) == 0 {
		err = fmt.Errorf("estimator: no group of %q has a nonzero estimated count", attr)
	}
	return out, err
}

// groupBy answers one estimate per value of attr, in domain order, from
// one (attr, agg) table: est gets the value's channel and code and, with
// an agg, the column's mean and variance. A group whose estimate is
// ErrZeroEstimatedCount is left out.
func (e *Estimator) groupBy(src tableSource, attr, agg string, est func(ch channelVal, t valueTable, c int, muP, varP float64) (Estimate, error)) (map[string]Estimate, error) {
	t, err := src.valueTable(e.Cache, attr, agg)
	if err != nil {
		return nil, err
	}
	var muP, varP float64
	if agg != "" {
		if muP, varP, err = e.spread(t); err != nil {
			return nil, err
		}
	}
	out := make(map[string]Estimate, t.ix.N())
	var key []byte
	for c, v := range t.ix.Domain {
		ch, err := e.eqChannel(&key, attr, v)
		if err != nil {
			return nil, err
		}
		g, err := est(ch, t, c, muP, varP)
		if errors.Is(err, ErrZeroEstimatedCount) {
			continue // zero estimated count: no meaningful average
		}
		if err != nil {
			return nil, err
		}
		out[v] = g
	}
	return out, nil
}
