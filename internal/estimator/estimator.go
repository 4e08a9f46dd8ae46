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
// τ_n = 0 and τ_p − τ_n = 1), under which Eq. 3/5/7 return the private
// count, sum and average and var keeps the injected noise (b = 0). Every
// entry point answers as e's does, without Meta or Prov, so it also
// evaluates a query exactly on a non-private relation. It shares e's Cache
// and Confidence; its channels are never cached.
func (e *Estimator) Nominal() *Estimator {
	return &Estimator{Cache: e.Cache, Confidence: e.Confidence, nominal: true}
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
	if cacheable && e.Cache != nil {
		if ch, ok := e.Cache.getChannel(key); ok {
			return ch, nil
		}
	}
	ch, err := e.resolveChannel(pred)
	if err == nil && cacheable && e.Cache != nil {
		e.Cache.putChannel(key, ch)
	}
	return ch, err
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
	mech, err := meta.Mech()
	if err != nil {
		return channelVal{}, fmt.Errorf("estimator: attribute %q: %w", base, err)
	}
	p := meta.P
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
	tauN, denom := mech.Channel(p, n, l)
	return channelVal{p: p, n: n, l: l, tauN: tauN, denom: denom}, nil
}

func (e *Estimator) confidence() float64 {
	if e.Confidence == 0 {
		return 0.95
	}
	return e.Confidence
}

// invertible resolves pred's channel and rejects one with no signal to
// invert (τ_p = τ_n).
func (e *Estimator) invertible(pred Predicate) (channelVal, error) {
	ch, err := e.channel(pred)
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
func (e *Estimator) Count(rel *relation.Relation, pred Predicate) (Estimate, error) {
	ch, err := e.invertible(pred)
	if err != nil {
		return Estimate{}, err
	}
	ix, err := rel.DiscreteIndex(pred.Attr)
	if err != nil {
		return Estimate{}, err
	}
	cPriv := countSelection(ix, compileSelection(ix, pred))
	return e.countEstimate(ch, float64(cPriv), float64(rel.NumRows()))
}

// countEstimate is the Eq. 3 scalar math, shared by the relation-backed and
// statistics-backed count estimators: invert the channel over the observed
// private count cPriv out of s rows. The mechanism enters only through the
// precomputed (tauN, denom) constants; for GRR they are p·l/N and 1-p, the
// exact float expressions of the pre-registry code.
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
func (e *Estimator) Sum(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	ch, err := e.invertible(pred)
	if err != nil {
		return Estimate{}, err
	}
	hp, hpc, cPriv, muP, varP, err := e.sumInputs(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	return e.sumEstimate(ch, hp, hpc, cPriv, float64(rel.NumRows()), muP, varP)
}

// sumInputs reads what the Eq. 5 estimators need from the per-code layer:
// the private sums of agg over pred and its complement, the matching row
// count, and agg's column mean and variance.
func (e *Estimator) sumInputs(rel *relation.Relation, agg string, pred Predicate) (hp, hpc, cPriv, muP, varP float64, err error) {
	ix, a, err := perCode(e.Cache, rel, pred.Attr, agg)
	if err != nil {
		return 0, 0, 0, 0, 0, err
	}
	if rel.NumRows() == 0 {
		return 0, 0, 0, 0, 0, fmt.Errorf("estimator: empty relation")
	}
	if muP, varP, err = e.spread(a.moments()); err != nil {
		return 0, 0, 0, 0, 0, err
	}
	sel := compileSelection(ix, pred)
	hp, hpc = a.fold(sel)
	return hp, hpc, float64(countSelection(ix, sel)), muP, varP, nil
}

// spread passes on the aggregate column's mean and variance, which scale a
// sum's interval. A column with no non-NaN cell has neither: the corrected
// estimators refuse it, while the query run as-is sums nothing there, so
// the nominal estimator answers it with a zero spread.
func (e *Estimator) spread(mean, variance float64, err error) (float64, float64, error) {
	if e.nominal && errors.Is(err, stats.ErrEmpty) {
		return 0, 0, nil
	}
	return mean, variance, err
}

// sumEstimate is the Eq. 5 scalar math, shared by the relation-backed and
// statistics-backed sum estimators: hp/hpc are the private sums over the
// predicate and its complement, cPriv the private matching count, s the row
// count, muP/varP the aggregate column's private mean and variance.
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
// ablation benchmarks.
//
// (Note that the complement query itself carries no independent
// information: h_p + h_p^c is the column total, so Eq. 5 is algebraically
// identical to ĥ = (h_p − τ_n·S·μ_p)/(1−p). The design choice Eq. 5
// embodies is *subtracting the false-positive mass* — which this ablation
// omits — not the extra query per se.)
func (e *Estimator) SumIgnoringFalsePositives(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	ch, err := e.channel(pred)
	if err != nil {
		return Estimate{}, err
	}
	hp, _, cPriv, muP, varP, err := e.sumInputs(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	tauP := ch.denom + ch.tauN
	if tauP <= 0 {
		return Estimate{}, fmt.Errorf("estimator: τ_p = %v leaves no signal to invert", tauP)
	}
	est := hp / tauP
	s := float64(rel.NumRows())
	sp := cPriv / s
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	ci := z / tauP * math.Sqrt(s*(sp*(1-sp)*muP*muP+varP))
	return Estimate{Value: est, CI: ci}, nil
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
func (e *Estimator) Avg(rel *relation.Relation, agg string, pred Predicate) (Estimate, error) {
	h, err := e.Sum(rel, agg, pred)
	if err != nil {
		return Estimate{}, err
	}
	c, err := e.Count(rel, pred)
	if err != nil {
		return Estimate{}, err
	}
	if c.Value == 0 {
		return Estimate{}, fmt.Errorf("%w for %s", ErrZeroEstimatedCount, pred)
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

// TotalCount estimates a predicate-free count: the relation size, which GRR
// does not perturb. The interval is zero.
func (e *Estimator) TotalCount(rel *relation.Relation) Estimate {
	return Estimate{Value: float64(rel.NumRows())}
}

// TotalSum estimates a predicate-free sum with the Direct estimator
// (unbiased per Section 5.1: GRR noise is zero-mean). The interval reflects
// the injected Laplace noise and sampling variance.
func (e *Estimator) TotalSum(rel *relation.Relation, agg string) (Estimate, error) {
	a, err := columnAggs(e.Cache, rel, nil, "", agg)
	if err != nil {
		return Estimate{}, err
	}
	_, varP, err := a.moments()
	if err != nil {
		return Estimate{}, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	s := float64(rel.NumRows())
	return Estimate{Value: a.total, CI: z * math.Sqrt(s*varP)}, nil
}

// TotalAvg estimates a predicate-free mean with the Direct estimator.
func (e *Estimator) TotalAvg(rel *relation.Relation, agg string) (Estimate, error) {
	a, err := columnAggs(e.Cache, rel, nil, "", agg)
	if err != nil {
		return Estimate{}, err
	}
	m, varP, err := a.moments()
	if err != nil {
		return Estimate{}, err
	}
	z, err := stats.ZScore(e.confidence())
	if err != nil {
		return Estimate{}, err
	}
	s := float64(rel.NumRows())
	if s == 0 {
		return Estimate{}, stats.ErrEmpty
	}
	return Estimate{Value: m, CI: z * math.Sqrt(varP/s)}, nil
}

// GroupCounts estimates count(1) ... GROUP BY attr: one corrected count per
// distinct value of attr in the (cleaned) private relation. This powers the
// TPC-DS experiment's GROUP BY queries (Section 8.3.4).
func (e *Estimator) GroupCounts(rel *relation.Relation, attr string) (map[string]Estimate, error) {
	ix, err := rel.DiscreteIndex(attr)
	if err != nil {
		return nil, err
	}
	counts := codeCounts(ix)
	out := make(map[string]Estimate, ix.N())
	for c, v := range ix.Domain {
		ch, err := e.invertible(Eq(attr, v))
		if err != nil {
			return nil, err
		}
		est, err := e.countEstimate(ch, float64(counts[c]), float64(rel.NumRows()))
		if err != nil {
			return nil, err
		}
		out[v] = est
	}
	return out, nil
}

// GroupSums estimates sum(agg) ... GROUP BY attr: one corrected sum per
// distinct value of attr in the (cleaned) private relation, every group
// read from one per-code aggregate table.
func (e *Estimator) GroupSums(rel *relation.Relation, attr, agg string) (map[string]Estimate, error) {
	g, err := e.groupPass(rel, attr, agg)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Estimate, len(g.ix.Domain))
	for c, v := range g.ix.Domain {
		est, err := e.groupSumEstimate(g, c, v, attr)
		if err != nil {
			return nil, err
		}
		out[v] = est
	}
	return out, nil
}

// GroupAvgs estimates avg(agg) ... GROUP BY attr with the corrected ratio
// estimator per group, from the same per-code table as GroupSums.
// Groups whose estimated count is zero are omitted; every other failure
// (missing aggregate column, bad metadata) propagates.
func (e *Estimator) GroupAvgs(rel *relation.Relation, attr, agg string) (map[string]Estimate, error) {
	g, err := e.groupPass(rel, attr, agg)
	if err != nil {
		return nil, err
	}
	out := make(map[string]Estimate, len(g.ix.Domain))
	for c, v := range g.ix.Domain {
		h, err := e.groupSumEstimate(g, c, v, attr)
		if err != nil {
			return nil, err
		}
		ch, err := e.channel(Eq(attr, v))
		if err != nil {
			return nil, err
		}
		cnt, err := e.countEstimate(ch, float64(g.counts[c]), g.rows)
		if err != nil {
			return nil, err
		}
		if cnt.Value == 0 {
			continue // zero estimated count: no meaningful average
		}
		val := h.Value / cnt.Value
		out[v] = Estimate{Value: val, CI: ratioCI(val, h, cnt)}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("estimator: no group of %q has a nonzero estimated count", attr)
	}
	return out, nil
}

// groupPass holds the shared per-code aggregates and column moments of one
// GROUP BY evaluation.
type groupPass struct {
	ix         *relation.DiscreteIndex
	counts     []uint32
	a          *codeAggs
	rows       float64
	mean, varP float64
}

func (e *Estimator) groupPass(rel *relation.Relation, attr, agg string) (*groupPass, error) {
	ix, a, err := perCode(e.Cache, rel, attr, agg)
	if err != nil {
		return nil, err
	}
	if rel.NumRows() == 0 {
		return nil, fmt.Errorf("estimator: empty relation")
	}
	mean, varP, err := e.spread(a.moments())
	if err != nil {
		return nil, err
	}
	return &groupPass{ix: ix, counts: codeCounts(ix), a: a, rows: float64(rel.NumRows()), mean: mean, varP: varP}, nil
}

// groupSumEstimate is one group's Eq. 5 inversion from the shared pass. The
// complement sum is the row-order column total minus the group's sum.
func (e *Estimator) groupSumEstimate(g *groupPass, code int, v, attr string) (Estimate, error) {
	ch, err := e.invertible(Eq(attr, v))
	if err != nil {
		return Estimate{}, err
	}
	hp := g.a.sums[code]
	return e.sumEstimate(ch, hp, g.a.total-hp, float64(g.counts[code]), g.rows, g.mean, g.varP)
}
