package experiments

import (
	"fmt"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/workload"
)

// Series names shared by the figures.
const (
	// SeriesDirect is the nominal query result on the cleaned private
	// relation, with no reweighting (Section 8.1's Direct).
	SeriesDirect = "Direct"
	// SeriesPrivateClean is the bias-corrected estimator with provenance.
	SeriesPrivateClean = "PrivateClean"
	// SeriesPCNoProv is the Section 5 bias correction applied *without*
	// provenance: the predicate's selectivity l is matched against the
	// released dirty domain, so cleaning-induced merges and renames are
	// invisible to it. Its excess bias over PrivateClean is exactly the
	// paper's merge term p(l/N - l'/N') (Section 6.1).
	SeriesPCNoProv = "PC-NoProv"
	// SeriesPCWeighted / SeriesPCUnweighted are the Figure 7 ablation:
	// weighted vs unweighted provenance cuts.
	SeriesPCWeighted   = "PC-W"
	SeriesPCUnweighted = "PC-U"
	// SeriesDirtyNoPriv is the reference of Figures 10/11: the query on the
	// original dirty relation with no cleaning and no privacy.
	SeriesDirtyNoPriv = "Dirty(no privacy)"
)

// trialParams bundles everything one synthetic trial needs.
type trialParams struct {
	cfg      Config
	p, b     float64
	z        float64
	n        int
	selFrac  float64 // predicate selectivity as a fraction of distinct values; 0 means use cfg.L values
	corr     float64 // category/value correlation
	merge    float64 // fraction of distinct values the cleaner merges into others
	rename   float64 // fraction of distinct values the cleaner renames to fresh values
	useClean bool    // apply the RandomValueMap cleaner
}

func (t trialParams) withDefaults(cfg Config) trialParams {
	t.cfg = cfg
	if t.p == 0 {
		t.p = cfg.P
	}
	if t.b == 0 {
		t.b = cfg.B
	}
	if t.z == 0 {
		t.z = cfg.Z
	}
	if t.n == 0 {
		t.n = cfg.N
	}
	return t
}

// syntheticTrial runs one randomized instance: generate R (and optionally a
// random cleaner), privatize, clean both R and V identically, run one random
// count query and one random sum query, and report the relative errors of
// Direct and PrivateClean against ground truth on R_clean.
func syntheticTrial(rng *rand.Rand, t trialParams, col *collector) error {
	r, err := workload.Synthetic(rng, workload.SyntheticConfig{
		S: t.cfg.S, N: t.n, Z: t.z, Correlation: t.corr,
	})
	if err != nil {
		return err
	}

	var ops []cleaning.Op
	if t.useClean {
		domain, err := r.Domain("category")
		if err != nil {
			return err
		}
		mapping, err := workload.RandomValueMap(rng, domain, t.merge, t.rename)
		if err != nil {
			return err
		}
		ops = append(ops, cleaning.DictionaryMerge{Attr: "category", Mapping: mapping})
	}

	// Ground truth: the same cleaning applied to the non-private relation.
	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, ops...); err != nil {
		return err
	}

	// Private view and its cleaned version, with provenance.
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), t.p, t.b))
	if err != nil {
		return err
	}
	analysis := newAnalysis(v, meta)
	if err := analysis.clean(ops...); err != nil {
		return err
	}

	// Random query: l distinct values drawn from the cleaned domain.
	cleanDomain, err := rClean.Domain("category")
	if err != nil {
		return err
	}
	l := t.cfg.L
	if t.selFrac > 0 {
		l = int(t.selFrac * float64(len(cleanDomain)))
		if l < 1 {
			l = 1
		}
	}
	pred := estimator.In("category", pickValues(rng, cleanDomain, l)...)

	return recordQueryErrors(col, analysis, rClean, "value", pred, false)
}

// exact is the nominal estimator: the query run as-is, which on a
// non-private relation is the ground truth.
var exact = new(estimator.Estimator).Nominal()

// analysis is a lightweight analyst: a cleaned private relation plus the
// state the estimators need. (The core package offers the full facade; the
// harness uses this slimmer form to also expose the PC-U ablation.)
type analysis struct {
	rel  *relation.Relation
	meta *privacy.ViewMeta
	est  *estimator.Estimator
}

func newAnalysis(v *relation.Relation, meta *privacy.ViewMeta) *analysis {
	a := &analysis{rel: v.Clone(), meta: meta}
	// The cache is per trial and fills only after cleaning, at the first
	// query; the corrected estimates and the Direct ones (a.est.Nominal())
	// share its per-code tables. The np/un estimators resolve different
	// channels under the same predicate keys, so they do not share it.
	a.est = &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}
	return a
}

func (a *analysis) clean(ops ...cleaning.Op) error {
	if len(ops) == 0 {
		return nil
	}
	if a.est.Prov == nil {
		a.est.Prov = provenance.NewStore()
	}
	return cleaning.Apply(&cleaning.Context{Rel: a.rel, Prov: a.est.Prov, Meta: a.meta}, ops...)
}

// recordQueryErrors evaluates one count query and one sum query with every
// estimator and records relative errors. When withUnweighted is set, the
// PC-U ablation series is recorded too.
func recordQueryErrors(col *collector, a *analysis, rClean *relation.Relation, agg string, pred estimator.Predicate, withUnweighted bool) error {
	truthCount, err := exact.Count(rClean, pred)
	if err != nil {
		return err
	}
	truthSum, err := exact.Sum(rClean, agg, pred)
	if err != nil {
		return err
	}

	direct := a.est.Nominal()
	directCount, err := direct.Count(a.rel, pred)
	if err != nil {
		return err
	}
	directSum, err := direct.Sum(a.rel, agg, pred)
	if err != nil {
		return err
	}
	pcCount, err := a.est.Count(a.rel, pred)
	if err != nil {
		return err
	}
	pcSum, err := a.est.Sum(a.rel, agg, pred)
	if err != nil {
		return err
	}

	col.add("count/"+SeriesDirect, stats.RelativeError(directCount.Value, truthCount.Value))
	col.add("count/"+SeriesPrivateClean, stats.RelativeError(pcCount.Value, truthCount.Value))
	col.add("sum/"+SeriesDirect, stats.RelativeError(directSum.Value, truthSum.Value))
	col.add("sum/"+SeriesPrivateClean, stats.RelativeError(pcSum.Value, truthSum.Value))

	if a.est.Prov != nil {
		// Cleaning happened: also record the provenance-free correction.
		np := &estimator.Estimator{Meta: a.est.Meta, Confidence: a.est.Confidence}
		npCount, err := np.Count(a.rel, pred)
		if err != nil {
			return err
		}
		npSum, err := np.Sum(a.rel, agg, pred)
		if err != nil {
			return err
		}
		col.add("count/"+SeriesPCNoProv, stats.RelativeError(npCount.Value, truthCount.Value))
		col.add("sum/"+SeriesPCNoProv, stats.RelativeError(npSum.Value, truthSum.Value))
	}

	if withUnweighted {
		un := &estimator.Estimator{Meta: a.est.Meta, Prov: a.est.Prov, Confidence: a.est.Confidence, UnweightedCut: true}
		uCount, err := un.Count(a.rel, pred)
		if err != nil {
			return err
		}
		uSum, err := un.Sum(a.rel, agg, pred)
		if err != nil {
			return err
		}
		col.add("count/"+SeriesPCUnweighted, stats.RelativeError(uCount.Value, truthCount.Value))
		col.add("sum/"+SeriesPCUnweighted, stats.RelativeError(uSum.Value, truthSum.Value))
	}
	return nil
}

// splitAggSeries turns a collector keyed "agg/Series" into one value map per
// aggregate.
func splitAggSeries(col *collector) (count, sum map[string]float64) {
	count = make(map[string]float64)
	sum = make(map[string]float64)
	for k, v := range col.meanPct() {
		switch {
		case len(k) > 6 && k[:6] == "count/":
			count[k[6:]] = v
		case len(k) > 4 && k[:4] == "sum/":
			sum[k[4:]] = v
		}
	}
	return count, sum
}

// Figure2 reproduces Figure 2: query error as a function of the privacy
// parameters. fig2a/fig2b sweep the discrete parameter p (count, sum);
// fig2c/fig2d sweep the numerical parameter b (count, sum). No data error.
func Figure2(cfg Config) ([]*Table, error) {
	ps := []float64{0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5}
	bs := []float64{1, 5, 10, 15, 20, 30, 40, 50}

	a := &Table{ID: "fig2a", Title: "Figure 2a: count error vs discrete privacy p", XLabel: "p", Series: []string{SeriesDirect, SeriesPrivateClean}}
	b := &Table{ID: "fig2b", Title: "Figure 2b: sum error vs discrete privacy p", XLabel: "p", Series: []string{SeriesDirect, SeriesPrivateClean}}
	for _, p := range ps {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return syntheticTrial(trialRNG(cfg.Seed, 0, trial), trialParams{p: p}.withDefaults(cfg), col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig2ab p=%v: %w", p, err)
		}
		countV, sumV := splitAggSeries(col)
		a.Points = append(a.Points, Point{X: p, Values: countV})
		b.Points = append(b.Points, Point{X: p, Values: sumV})
	}

	c := &Table{ID: "fig2c", Title: "Figure 2c: count error vs numerical privacy b", XLabel: "b", Series: []string{SeriesDirect, SeriesPrivateClean}}
	d := &Table{ID: "fig2d", Title: "Figure 2d: sum error vs numerical privacy b", XLabel: "b", Series: []string{SeriesDirect, SeriesPrivateClean}}
	for _, bv := range bs {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return syntheticTrial(trialRNG(cfg.Seed+1000, 0, trial), trialParams{b: bv}.withDefaults(cfg), col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig2cd b=%v: %w", bv, err)
		}
		countV, sumV := splitAggSeries(col)
		c.Points = append(c.Points, Point{X: bv, Values: countV})
		d.Points = append(d.Points, Point{X: bv, Values: sumV})
	}
	return []*Table{a, b, c, d}, nil
}

// Figure3 reproduces Figure 3: query error as a function of predicate
// selectivity (fraction of distinct values the predicate selects).
func Figure3(cfg Config) ([]*Table, error) {
	fracs := []float64{0.02, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	sumT := &Table{ID: "fig3a", Title: "Figure 3a: sum error vs selectivity", XLabel: "selectivity", Series: []string{SeriesDirect, SeriesPrivateClean}}
	countT := &Table{ID: "fig3b", Title: "Figure 3b: count error vs selectivity", XLabel: "selectivity", Series: []string{SeriesDirect, SeriesPrivateClean}}
	for _, f := range fracs {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return syntheticTrial(trialRNG(cfg.Seed+2000, 0, trial), trialParams{selFrac: f}.withDefaults(cfg), col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig3 selectivity=%v: %w", f, err)
		}
		countV, sumV := splitAggSeries(col)
		sumT.Points = append(sumT.Points, Point{X: f, Values: sumV})
		countT.Points = append(countT.Points, Point{X: f, Values: countV})
	}
	return []*Table{sumT, countT}, nil
}

// Figure4 reproduces Figure 4: query error as a function of the Zipfian
// skew z.
func Figure4(cfg Config) ([]*Table, error) {
	zs := []float64{0.001, 0.5, 1, 1.5, 2, 2.5, 3, 3.5, 4}
	countT := &Table{ID: "fig4a", Title: "Figure 4a: count error vs skew z", XLabel: "z", Series: []string{SeriesDirect, SeriesPrivateClean}}
	sumT := &Table{ID: "fig4b", Title: "Figure 4b: sum error vs skew z", XLabel: "z", Series: []string{SeriesDirect, SeriesPrivateClean}}
	for _, z := range zs {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return syntheticTrial(trialRNG(cfg.Seed+3000, 0, trial), trialParams{z: z}.withDefaults(cfg), col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig4 z=%v: %w", z, err)
		}
		countV, sumV := splitAggSeries(col)
		countT.Points = append(countT.Points, Point{X: z, Values: countV})
		sumT.Points = append(sumT.Points, Point{X: z, Values: sumV})
	}
	return []*Table{countT, sumT}, nil
}

// Figure5 reproduces Figure 5: query error as a function of the data error
// rate — the fraction of distinct values affected by transformation errors
// (alternative representations the cleaner maps one-to-one back to their
// canonical values). PrivateClean tracks the renames through provenance and
// keeps near-constant error; the provenance-free correction degrades as the
// error rate grows.
func Figure5(cfg Config) ([]*Table, error) {
	rates := []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	sumT := &Table{ID: "fig5a", Title: "Figure 5a: sum error vs data error rate", XLabel: "error rate", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	countT := &Table{ID: "fig5b", Title: "Figure 5b: count error vs data error rate", XLabel: "error rate", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	for _, e := range rates {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			t := trialParams{useClean: true, rename: e, selFrac: 0.1, z: 1}.withDefaults(cfg)
			return syntheticTrial(trialRNG(cfg.Seed+4000, 0, trial), t, col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig5 rate=%v: %w", e, err)
		}
		countV, sumV := splitAggSeries(col)
		sumT.Points = append(sumT.Points, Point{X: e, Values: sumV})
		countT.Points = append(countT.Points, Point{X: e, Values: countV})
	}
	return []*Table{sumT, countT}, nil
}

// Figure6 reproduces Figure 6: query error as a function of the merge rate
// — the fraction of distinct values the cleaner merges into other existing
// distinct values (clustered, several sources per canonical target). Merges
// change the predicate's dirty-domain selectivity, which is exactly what
// the provenance graph recovers.
func Figure6(cfg Config) ([]*Table, error) {
	mergeRates := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}
	sumT := &Table{ID: "fig6a", Title: "Figure 6a: sum error vs merge rate", XLabel: "merge rate", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	countT := &Table{ID: "fig6b", Title: "Figure 6b: count error vs merge rate", XLabel: "merge rate", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	for _, m := range mergeRates {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			t := trialParams{useClean: true, merge: m, selFrac: 0.1, z: 1}.withDefaults(cfg)
			return syntheticTrial(trialRNG(cfg.Seed+5000, 0, trial), t, col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig6 merge=%v: %w", m, err)
		}
		countV, sumV := splitAggSeries(col)
		sumT.Points = append(sumT.Points, Point{X: m, Values: sumV})
		countT.Points = append(countT.Points, Point{X: m, Values: countV})
	}
	return []*Table{sumT, countT}, nil
}

// Figure7 reproduces Figure 7: multi-attribute cleaning. A fraction of rows
// lose their instructor value; an FD repair on (section -> instructor)
// restores them. Because the dirty value NULL forks across instructors, the
// provenance graph is weighted: the weighted cut (PC-W) beats the
// unweighted cut (PC-U), which beats Direct.
func Figure7(cfg Config) ([]*Table, error) {
	rates := []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.5}
	series := []string{SeriesDirect, SeriesPCUnweighted, SeriesPCWeighted}
	countT := &Table{ID: "fig7a", Title: "Figure 7a: count error, multi-attribute cleaning", XLabel: "error rate", Series: series}
	sumT := &Table{ID: "fig7b", Title: "Figure 7b: sum error, multi-attribute cleaning", XLabel: "error rate", Series: series}
	for _, e := range rates {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			return multiAttrTrial(trialRNG(cfg.Seed+6000, 0, trial), cfg, e, col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig7 rate=%v: %w", e, err)
		}
		countV, sumV := splitAggSeries(col)
		// Rename PrivateClean -> PC-W for this figure's display.
		countV[SeriesPCWeighted] = countV[SeriesPrivateClean]
		sumV[SeriesPCWeighted] = sumV[SeriesPrivateClean]
		delete(countV, SeriesPrivateClean)
		delete(sumV, SeriesPrivateClean)
		countT.Points = append(countT.Points, Point{X: e, Values: countV})
		sumT.Points = append(sumT.Points, Point{X: e, Values: sumV})
	}
	return []*Table{countT, sumT}, nil
}

func multiAttrTrial(rng *rand.Rand, cfg Config, errorRate float64, col *collector) error {
	r, err := workload.MultiAttr(rng, workload.MultiAttrConfig{
		S: cfg.S, Z: cfg.Z, ErrorRate: errorRate,
	})
	if err != nil {
		return err
	}
	repair := cleaning.FDImpute{LHS: []string{"section"}, RHS: "instructor"}

	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, repair); err != nil {
		return err
	}

	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), cfg.P, cfg.B))
	if err != nil {
		return err
	}
	a := newAnalysis(v, meta)
	if err := a.clean(repair); err != nil {
		return err
	}

	cleanDomain, err := rClean.Domain("instructor")
	if err != nil {
		return err
	}
	pred := estimator.In("instructor", pickValues(rng, cleanDomain, 2)...)
	return recordQueryErrors(col, a, rClean, "value", pred, true)
}

// Figure9 reproduces Figure 9: query error as a function of the distinct
// fraction N/S, with a 5% data error rate. As the distinct fraction grows
// the accuracy of both estimators degrades, with a crossover beyond which
// Direct is the better estimator.
func Figure9(cfg Config) ([]*Table, error) {
	ns := []int{20, 50, 100, 200, 300, 400, 500, 700, 900}
	sumT := &Table{ID: "fig9a", Title: "Figure 9a: sum error vs distinct fraction N/S", XLabel: "N/S", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	countT := &Table{ID: "fig9b", Title: "Figure 9b: count error vs distinct fraction N/S", XLabel: "N/S", Series: []string{SeriesDirect, SeriesPCNoProv, SeriesPrivateClean}}
	for _, n := range ns {
		col, err := runTrials(cfg.Trials, func(trial int, col *collector) error {
			t := trialParams{n: n, useClean: true, merge: 0.05}.withDefaults(cfg)
			return syntheticTrial(trialRNG(cfg.Seed+7000, 0, trial), t, col)
		})
		if err != nil {
			return nil, fmt.Errorf("fig9 N=%d: %w", n, err)
		}
		x := float64(n) / float64(cfg.S)
		countV, sumV := splitAggSeries(col)
		sumT.Points = append(sumT.Points, Point{X: x, Values: sumV})
		countT.Points = append(countT.Points, Point{X: x, Values: countV})
	}
	return []*Table{sumT, countT}, nil
}
