package estimator

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/stats/statcheck"
)

// The statistical regression suite, as a statcheck table: one row per
// (mechanism × estimator × regime) cell. statcheck owns the assertion rules
// (4-SE unbiasedness, coverage bands at full depth, WantBias power rows);
// this file owns the relations, truths, and seed bases. The seeds are
// fixed, so a failure is a regression in the estimator math (Eqs. 3/5/7,
// the binned inversion, or the CLT intervals), not test flakiness. See
// docs/TESTING.md for the rules and how to read a failure.
//
// Coverage bands: the count interval is calibrated only in the high-p
// homogeneous regime (the "calibrated" row pins it to a two-sided band);
// the sum/avg intervals carry the paper's deliberate 2x conservative
// factor, so they assert a floor only — over-coverage is their correct
// behavior.

// privatizedMech privatizes under a named mechanism (privatized's GRR-only
// signature predates mechanism names).
func privatizedMech(t *testing.T, r *relation.Relation, seed int64, p, b float64, mechName string) (*relation.Relation, *privacy.ViewMeta) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	params := privacy.Uniform(r.Schema(), p, b)
	params.Mechanism = mechName
	v, meta, err := privacy.Privatize(rng, r, params)
	if err != nil {
		t.Fatal(err)
	}
	return v, meta
}

// binaryRel builds a 2-value discrete attribute with a correlated numeric
// column for the rrbin estimator suite (rrbin only admits binary domains).
func binaryRel(t *testing.T) *relation.Relation {
	t.Helper()
	var cats []string
	var vals []float64
	for i := 0; i < 650; i++ {
		cats = append(cats, "no")
		vals = append(vals, 10)
	}
	for i := 0; i < 350; i++ {
		cats = append(cats, "yes")
		vals = append(vals, 30)
	}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// nullRel is skewedRel with every third value cell NULL (NaN): avg must
// skip those rows, so each category's average stays its base value.
func nullRel(t *testing.T) *relation.Relation {
	t.Helper()
	r := skewedRel(t)
	vals := append([]float64(nil), r.MustNumeric("value")...)
	for i := range vals {
		if i%3 == 0 {
			vals[i] = math.NaN()
		}
	}
	out, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": r.MustDiscrete("category")})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// quantRel builds a relation whose matched group has real numeric spread,
// so quantile rows exercise interpolation and the removal of cross-category
// mixing (the unmatched group's values live in a disjoint range).
func quantRel(t *testing.T) *relation.Relation {
	t.Helper()
	var cats []string
	var vals []float64
	for i := 0; i < 1600; i++ {
		cats = append(cats, "x")
		vals = append(vals, float64(i%40))
	}
	for i := 0; i < 2400; i++ {
		cats = append(cats, "y")
		vals = append(vals, 60+float64(i%40))
	}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// quantBinRel is quantRel with a binary domain for rrbin.
func quantBinRel(t *testing.T) *relation.Relation {
	t.Helper()
	var cats []string
	var vals []float64
	for i := 0; i < 2400; i++ {
		cats = append(cats, "no")
		vals = append(vals, float64(i%40))
	}
	for i := 0; i < 1600; i++ {
		cats = append(cats, "yes")
		vals = append(vals, 60+float64(i%40))
	}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// conjBinRel is conjRel with binary domains on both discrete attributes,
// for the rrbin conjunction rows.
func conjBinRel(t *testing.T) *relation.Relation {
	t.Helper()
	type cell struct {
		major, section string
		count          int
		score          float64
	}
	cells := []cell{
		{"no", "lo", 400, 1},
		{"no", "hi", 250, 2},
		{"yes", "lo", 150, 3},
		{"yes", "hi", 200, 5},
	}
	var majors, sections []string
	var scores []float64
	for _, c := range cells {
		for i := 0; i < c.count; i++ {
			majors = append(majors, c.major)
			sections = append(sections, c.section)
			scores = append(scores, c.score)
		}
	}
	r, err := relation.FromColumns(conjSchema,
		map[string][]float64{"score": scores},
		map[string][]string{"major": majors, "section": sections})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// sample converts an estimate into a statcheck sample against truth.
func sample(t *testing.T, e Estimate, err error, truth float64) statcheck.Sample {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	return statcheck.Sample{Value: e.Value, Covered: e.Lo() <= truth && truth <= e.Hi()}
}

// collectWith runs the view through the collector with the released bin
// edges from meta plus any requested joints.
func collectWith(t *testing.T, v *relation.Relation, meta *privacy.ViewMeta, joints [][2]string) *Statistics {
	t.Helper()
	opts := CollectOpts{Joints: joints, BinEdges: map[string][]float64{}}
	for name, nm := range meta.Numeric {
		if e := nm.BinEdges(); e != nil {
			opts.BinEdges[name] = e
		}
	}
	st, err := CollectStatisticsWith(relation.NewSliceIterator(v, 256), opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// binnedQuantileTruth is the binned inverse-CDF of the true matched values
// under the released edges: the value the channel inversion converges to
// (it removes mixing, not discretization, so the truth is binned too).
func binnedQuantileTruth(t *testing.T, edges, matched []float64, q float64) float64 {
	t.Helper()
	fs := make([]float64, len(edges)-1)
	for _, x := range matched {
		if !math.IsNaN(x) {
			fs[searchBin(edges, x)]++
		}
	}
	v, err := stats.HistQuantile(edges, fs, q)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// laplaceCDF is the CDF of Laplace(0, b).
func laplaceCDF(x, b float64) float64 {
	if x < 0 {
		return 0.5 * math.Exp(x/b)
	}
	return 1 - 0.5*math.Exp(-x/b)
}

// laplaceBinTruth is the expected count of bin k after the Laplace(b)
// convolution of the true values xs, with the end-bin clamping the release
// applies (out-of-range cells land in the nearest end bin).
func laplaceBinTruth(edges, xs []float64, b float64, k int) float64 {
	lo, hi := edges[k], edges[k+1]
	var e float64
	for _, x := range xs {
		pLo := laplaceCDF(lo-x, b)
		pHi := laplaceCDF(hi-x, b)
		if k == 0 {
			pLo = 0
		}
		if k == len(edges)-2 {
			pHi = 1
		}
		e += pHi - pLo
	}
	return e
}

// metaWithP returns a deep copy of meta with every discrete attribute's p
// replaced — the deliberately broken channel the power rows estimate with.
func metaWithP(meta *privacy.ViewMeta, p float64) *privacy.ViewMeta {
	out := *meta
	out.Discrete = make(map[string]privacy.DiscreteMeta, len(meta.Discrete))
	for k, dm := range meta.Discrete {
		dm.P = p
		out.Discrete[k] = dm
	}
	return &out
}

func TestStatisticalRegressionSuite(t *testing.T) {
	skewed := skewedRel(t)
	nulls := nullRel(t)
	binary := binaryRel(t)
	quant := quantRel(t)
	quantBin := quantBinRel(t)
	conj := conjRel(t)
	conjBin := conjBinRel(t)

	predB := Eq("category", "b")
	predYes := Eq("category", "yes")
	predCD := In("category", "c", "d")
	conjPreds := []Predicate{Eq("major", "ME"), Eq("section", "1")}
	conjBinPreds := []Predicate{Eq("major", "yes"), Eq("section", "hi")}

	floor := statcheck.Band{Min: 0.90}
	var rows []statcheck.Row

	// --- Marginal count/sum/avg, per mechanism (Eqs. 3, 5, 7). ---
	type scalarCase struct {
		mech                 string
		rel                  *relation.Relation
		p, b                 float64
		pred                 Predicate
		countTruth, sumTruth float64
		seed                 int64
	}
	for _, c := range []scalarCase{
		{privacy.MechGRR, skewed, 0.3, 5.0, predB, 300, 6000, 77000},
		{privacy.MechKRR, skewed, 0.3, 5.0, predB, 300, 6000, 55000},
		{privacy.MechRRBin, binary, 0.25, 4.0, predYes, 350, 10500, 66000},
	} {
		c := c
		rows = append(rows,
			statcheck.Row{
				Name: c.mech + "/count", Truth: c.countTruth, Trials: 120, Seed: c.seed, Cover: floor,
				Run: func(t *testing.T, seed int64) statcheck.Sample {
					v, meta := privatizedMech(t, c.rel, seed, c.p, c.b, c.mech)
					est := &Estimator{Meta: meta, Confidence: 0.95}
					e, err := est.Count(v, c.pred)
					return sample(t, e, err, c.countTruth)
				},
			},
			statcheck.Row{
				Name: c.mech + "/sum", Truth: c.sumTruth, Trials: 120, Seed: c.seed, Cover: floor,
				Run: func(t *testing.T, seed int64) statcheck.Sample {
					v, meta := privatizedMech(t, c.rel, seed, c.p, c.b, c.mech)
					est := &Estimator{Meta: meta, Confidence: 0.95}
					e, err := est.Sum(v, "value", c.pred)
					return sample(t, e, err, c.sumTruth)
				},
			},
		)
	}
	rows = append(rows,
		statcheck.Row{
			Name: "grr/avg", Truth: 20, Trials: 120, Seed: 77000, Cover: floor,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, skewed, seed, 0.3, 5.0, privacy.MechGRR)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				e, err := est.Avg(v, "value", predB)
				return sample(t, e, err, 20)
			},
		},
		// avg skips NULL cells on both sources: counting the NULL rows in
		// the denominator would pull the estimate towards 0 (~13.3 here).
		statcheck.Row{
			Name: "grr/avg/nulls", Truth: 20, Trials: 120, Seed: 78000, Cover: floor,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, nulls, seed, 0.3, 5.0, privacy.MechGRR)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				e, err := est.Avg(v, "value", predB)
				return sample(t, e, err, 20)
			},
		},
		statcheck.Row{
			Name: "grr/avg/nulls/stats-path", Truth: 20, Trials: 120, Seed: 79000, Cover: floor,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, nulls, seed, 0.3, 5.0, privacy.MechGRR)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				e, err := est.AvgStats(collect(t, v, 256), "value", predB)
				return sample(t, e, err, 20)
			},
		},
		// Calibrated regime: at p = 0.8 the keep probabilities are nearly
		// homogeneous, the plug-in variance matches the CLT variance, and
		// the nominal 95% count interval must behave like one — neither
		// anti-conservative nor degenerate-wide.
		statcheck.Row{
			Name: "grr/count/calibrated", Truth: 300, Trials: 200, Seed: 99000,
			Cover: statcheck.Band{Min: 0.90, Max: 0.99},
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, skewed, seed, 0.8, 0, privacy.MechGRR)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				e, err := est.Count(v, predB)
				return sample(t, e, err, 300)
			},
		},
		// The stats path reads the same channel constants through
		// CountStats — same distribution, estimates through the collector.
		statcheck.Row{
			Name: "grr/count/stats-path", Truth: 190, Trials: 80, Seed: 88000, Cover: floor,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, skewed, seed, 0.25, 0, privacy.MechGRR)
				st := collect(t, v, 256)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				e, err := est.CountStats(st, predCD)
				return sample(t, e, err, 190)
			},
		},
		statcheck.Row{
			Name: "krr/count/stats-path", Truth: 190, Trials: 80, Seed: 44000, Cover: floor,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, skewed, seed, 0.25, 0, privacy.MechKRR)
				st := collect(t, v, 256)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				e, err := est.CountStats(st, predCD)
				return sample(t, e, err, 190)
			},
		},
	)

	// --- Binned quantiles over statistics and over the resident view, per
	// mechanism. b = 0 keeps the numeric cells exact, so the truth is the
	// binned inverse-CDF of the true matched histogram and any deviation is
	// the channel inversion's fault. The two groups' values are disjoint, so
	// an order statistic that leaves the predicate's mixing uncorrected is
	// biased towards the unmatched group. ---
	type quantCase struct {
		mech string
		rel  *relation.Relation
		p    float64
		pred Predicate
		q    float64
		seed int64
	}
	for _, c := range []quantCase{
		{privacy.MechGRR, quant, 0.3, Eq("category", "x"), 0.5, 12000},
		{privacy.MechGRR, quant, 0.3, Eq("category", "x"), 0.9, 12300},
		{privacy.MechKRR, quant, 0.2, Eq("category", "x"), 0.5, 13000},
		{privacy.MechRRBin, quantBin, 0.25, Eq("category", "yes"), 0.5, 14000},
	} {
		c := c
		// The truth needs the released edges, which depend only on the
		// (deterministic) data, not the seed: privatize once to read them.
		_, meta0 := privatizedMech(t, c.rel, 1, c.p, 0, c.mech)
		edges := meta0.Numeric["value"].BinEdges()
		truth := binnedQuantileTruth(t, edges, mustMatched(t, c.rel, "value", c.pred), c.q)
		name := fmt.Sprintf("%s/quantile-%v", c.mech, c.q)
		rows = append(rows,
			statcheck.Row{
				Name: name + "/stats", Truth: truth, Trials: 80, Seed: c.seed, Cover: floor,
				Slack: edges[1] - edges[0],
				Run: func(t *testing.T, seed int64) statcheck.Sample {
					v, meta := privatizedMech(t, c.rel, seed, c.p, 0, c.mech)
					st := collectWith(t, v, meta, nil)
					est := &Estimator{Meta: meta, Confidence: 0.95}
					e, err := est.PercentileStats(st, "value", c.pred, c.q)
					return sample(t, e, err, truth)
				},
			},
			statcheck.Row{
				Name: name + "/resident", Truth: truth, Trials: 80, Seed: c.seed + 500, Cover: floor,
				Slack: edges[1] - edges[0],
				Run: func(t *testing.T, seed int64) statcheck.Sample {
					v, meta := privatizedMech(t, c.rel, seed, c.p, 0, c.mech)
					est := &Estimator{Meta: meta, Confidence: 0.95}
					e, err := est.Percentile(v, "value", c.pred, c.q)
					return sample(t, e, err, truth)
				},
			},
		)
	}

	// --- Conjunctions over statistics, per mechanism: the recorded
	// pairwise joint must reproduce the row-scan weights exactly. ---
	type conjCase struct {
		mech                 string
		rel                  *relation.Relation
		p                    float64
		preds                []Predicate
		countTruth, sumTruth float64
		seed                 int64
	}
	joints := [][2]string{{"major", "section"}}
	for _, c := range []conjCase{
		{privacy.MechGRR, conj, 0.3, conjPreds, 300, 1200, 15000},
		{privacy.MechKRR, conj, 0.3, conjPreds, 300, 1200, 16000},
		{privacy.MechRRBin, conjBin, 0.25, conjBinPreds, 200, 1000, 17000},
	} {
		c := c
		rows = append(rows,
			statcheck.Row{
				Name: c.mech + "/conj-count/stats", Truth: c.countTruth, Trials: 80, Seed: c.seed, Cover: floor,
				Run: func(t *testing.T, seed int64) statcheck.Sample {
					v, meta := privatizedMech(t, c.rel, seed, c.p, 0, c.mech)
					st := collectWith(t, v, meta, joints)
					est := &Estimator{Meta: meta, Confidence: 0.95}
					e, err := est.CountConjStats(st, c.preds...)
					return sample(t, e, err, c.countTruth)
				},
			},
			statcheck.Row{
				Name: c.mech + "/conj-sum/stats", Truth: c.sumTruth, Trials: 80, Seed: c.seed, Cover: floor,
				Run: func(t *testing.T, seed int64) statcheck.Sample {
					v, meta := privatizedMech(t, c.rel, seed, c.p, 0, c.mech)
					st := collectWith(t, v, meta, joints)
					est := &Estimator{Meta: meta, Confidence: 0.95}
					e, err := est.SumConjStats(st, "score", c.preds...)
					return sample(t, e, err, c.sumTruth)
				},
			},
		)
	}

	// --- Binned GROUP BY counts, per mechanism: the discrete channel must
	// not disturb the numeric binning. With b > 0 the per-bin expectation
	// is the Laplace-convolved mass of the true column (the convolution is
	// a property of the release, not a bias the estimator removes). ---
	type gbCase struct {
		mech string
		rel  *relation.Relation
		p    float64
		at   float64 // pick the bin containing this value
		seed int64
	}
	for _, c := range []gbCase{
		{privacy.MechGRR, skewed, 0.3, 20, 18000},
		{privacy.MechKRR, skewed, 0.3, 20, 18500},
		{privacy.MechRRBin, binary, 0.25, 30, 19000},
	} {
		c := c
		const bNoise = 2.0
		_, meta0 := privatizedMech(t, c.rel, 1, c.p, bNoise, c.mech)
		edges := meta0.Numeric["value"].BinEdges()
		k := searchBin(edges, c.at)
		xs, err := c.rel.Numeric("value")
		if err != nil {
			t.Fatal(err)
		}
		truth := laplaceBinTruth(edges, xs, bNoise, k)
		rows = append(rows, statcheck.Row{
			Name: c.mech + "/groupby-bin-count", Truth: truth, Trials: 80, Seed: c.seed, Cover: floor,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, c.rel, seed, c.p, bNoise, c.mech)
				est := &Estimator{Meta: meta, Confidence: 0.95}
				bins, err := est.GroupBinCounts(v, "value")
				if err != nil {
					t.Fatal(err)
				}
				e := bins[k].Est
				return sample(t, e, nil, truth)
			},
		})
	}

	// --- Power rows: estimating with a deliberately wrong p must surface
	// as decisive Monte-Carlo bias, one row per mechanism over the new
	// estimator families. ---
	_, quantMeta := privatizedMech(t, quant, 1, 0.4, 0, privacy.MechKRR)
	quantPowerTruth := binnedQuantileTruth(t, quantMeta.Numeric["value"].BinEdges(),
		mustMatched(t, quant, "value", Eq("category", "x")), 0.5)
	rows = append(rows,
		statcheck.Row{
			Name: "power/grr/conj-count-wrong-p", Truth: 300, Trials: 40, Seed: 20000, WantBias: true,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, conj, seed, 0.6, 0, privacy.MechGRR)
				st := collectWith(t, v, meta, joints)
				est := &Estimator{Meta: metaWithP(meta, 0.05), Confidence: 0.95}
				e, err := est.CountConjStats(st, conjPreds...)
				return sample(t, e, err, 300)
			},
		},
		statcheck.Row{
			Name: "power/krr/quantile-wrong-p", Truth: quantPowerTruth, Trials: 40, Seed: 21000, WantBias: true,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, quant, seed, 0.4, 0, privacy.MechKRR)
				st := collectWith(t, v, meta, nil)
				est := &Estimator{Meta: metaWithP(meta, 0.05), Confidence: 0.95}
				e, err := est.PercentileStats(st, "value", Eq("category", "x"), 0.5)
				return sample(t, e, err, quantPowerTruth)
			},
		},
		statcheck.Row{
			Name: "power/rrbin/conj-count-wrong-p", Truth: 200, Trials: 40, Seed: 22000, WantBias: true,
			Run: func(t *testing.T, seed int64) statcheck.Sample {
				v, meta := privatizedMech(t, conjBin, seed, 0.4, 0, privacy.MechRRBin)
				st := collectWith(t, v, meta, joints)
				est := &Estimator{Meta: metaWithP(meta, 0.05), Confidence: 0.95}
				e, err := est.CountConjStats(st, conjBinPreds...)
				return sample(t, e, err, 200)
			},
		},
	)

	statcheck.Run(t, rows)
}

// mustMatched is matchedValues with the error folded into the test.
func mustMatched(t *testing.T, rel *relation.Relation, agg string, pred Predicate) []float64 {
	t.Helper()
	vs, err := matchedValues(rel, agg, pred)
	if err != nil {
		t.Fatal(err)
	}
	return vs
}
