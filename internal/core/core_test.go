package core

import (
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/cleaning"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

var evalSchema = relation.MustSchema(
	relation.Column{Name: "major", Kind: relation.Discrete},
	relation.Column{Name: "score", Kind: relation.Numeric},
)

// courseEvals builds the running-example relation: majors with alternative
// representations and a 0-5 score.
func courseEvals(t *testing.T, n int) *relation.Relation {
	t.Helper()
	majors := make([]string, n)
	scores := make([]float64, n)
	variants := []string{"Mechanical Engineering", "Mech. Eng.", "Electrical Eng.", "Math", "History"}
	for i := range majors {
		majors[i] = variants[i%len(variants)]
		scores[i] = float64(i%5) + 0.5
	}
	r, err := relation.FromColumns(evalSchema,
		map[string][]float64{"score": scores},
		map[string][]string{"major": majors})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func release(t *testing.T, r *relation.Relation, p, b float64, seed int64) *View {
	t.Helper()
	provider := NewProvider(r)
	view, err := provider.Release(rand.New(rand.NewSource(seed)), privacy.Uniform(r.Schema(), p, b))
	if err != nil {
		t.Fatal(err)
	}
	return view
}

func TestProviderRelease(t *testing.T) {
	r := courseEvals(t, 500)
	view := release(t, r, 0.2, 1, 7)
	if view.Rel.NumRows() != 500 {
		t.Fatal("row count changed")
	}
	if math.IsInf(view.Epsilon(), 1) || view.Epsilon() <= 0 {
		t.Fatalf("epsilon = %v", view.Epsilon())
	}
	// Original is untouched.
	if r.MustDiscrete("major")[0] != "Mechanical Engineering" {
		t.Fatal("provider's relation mutated")
	}
}

func TestProviderReleaseTuned(t *testing.T) {
	r := courseEvals(t, 2000)
	provider := NewProvider(r)
	view, params, err := provider.ReleaseTuned(rand.New(rand.NewSource(3)), 0.1, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if params.P["major"] <= 0 || params.P["major"] >= 1 {
		t.Fatalf("tuned p = %v", params.P["major"])
	}
	if view.Meta.Discrete["major"].P != params.P["major"] {
		t.Fatal("view metadata does not match tuned params")
	}
	if _, _, err := provider.ReleaseTuned(rand.New(rand.NewSource(3)), 1e-9, 0.95); err == nil {
		t.Fatal("want error for unmeetable target")
	}
}

func TestAnalystCleanAndQuery(t *testing.T) {
	r := courseEvals(t, 1000)
	view := release(t, r, 0.15, 0.5, 11)
	analyst := NewAnalyst(view)

	// Clean: merge the Mech. Eng. variant (the Figure 1 workflow).
	err := analyst.Clean(cleaning.FindReplace{
		Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering",
	})
	if err != nil {
		t.Fatal(err)
	}

	res, err := analyst.Query("SELECT count(1) FROM evals WHERE major = 'Mechanical Engineering'")
	if err != nil {
		t.Fatal(err)
	}
	truth := 400.0 // 2 of 5 variants
	if math.Abs(res.PrivateClean.Value-truth) > 80 {
		t.Fatalf("count estimate = %v, want ~%v", res.PrivateClean.Value, truth)
	}
	if res.PrivateClean.CI <= 0 {
		t.Fatal("missing confidence interval")
	}
	// The corrected estimate should not be farther from truth than Direct
	// by a large margin (usually closer).
	if math.Abs(res.Direct-truth)+60 < math.Abs(res.PrivateClean.Value-truth) {
		t.Fatalf("direct %v much closer than corrected %v", res.Direct, res.PrivateClean.Value)
	}

	avg, err := analyst.Query("SELECT avg(score) FROM evals WHERE major = 'Mechanical Engineering'")
	if err != nil {
		t.Fatal(err)
	}
	// The generator cycles majors and scores in lockstep: the merged group
	// holds scores {0.5, 1.5}, so the true average is 1.0.
	if math.Abs(avg.PrivateClean.Value-1.0) > 0.7 {
		t.Fatalf("avg estimate = %v, want ~1.0", avg.PrivateClean.Value)
	}

	sum, err := analyst.Query("SELECT sum(score) FROM evals WHERE major = 'Mechanical Engineering'")
	if err != nil {
		t.Fatal(err)
	}
	if sum.PrivateClean.Value <= 0 {
		t.Fatalf("sum estimate = %v", sum.PrivateClean.Value)
	}
}

func TestAnalystUDFQuery(t *testing.T) {
	r := courseEvals(t, 1000)
	view := release(t, r, 0.1, 0.5, 13)
	analyst := NewAnalyst(view)
	analyst.RegisterUDF("isEngineering", func(v string) bool {
		return v == "Mechanical Engineering" || v == "Mech. Eng." || v == "Electrical Eng."
	})
	res, err := analyst.Query("SELECT count(1) FROM evals WHERE isEngineering(major)")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PrivateClean.Value-600) > 80 {
		t.Fatalf("UDF count = %v, want ~600", res.PrivateClean.Value)
	}
	if _, err := analyst.Query("SELECT count(1) FROM evals WHERE unknownUDF(major)"); err == nil {
		t.Fatal("want error for unregistered UDF")
	}
}

func TestAnalystNoPredicateQueries(t *testing.T) {
	r := courseEvals(t, 800)
	view := release(t, r, 0.1, 0.5, 17)
	analyst := NewAnalyst(view)
	res, err := analyst.Query("SELECT count(1) FROM evals")
	if err != nil || res.PrivateClean.Value != 800 {
		t.Fatalf("total count = %+v, %v", res, err)
	}
	res, err = analyst.Query("SELECT sum(score) FROM evals")
	if err != nil {
		t.Fatal(err)
	}
	truth := 0.0
	for _, v := range r.MustNumeric("score") {
		truth += v
	}
	if math.Abs(res.PrivateClean.Value-truth)/truth > 0.1 {
		t.Fatalf("total sum = %v, want ~%v", res.PrivateClean.Value, truth)
	}
	res, err = analyst.Query("SELECT avg(score) FROM evals")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.PrivateClean.Value-truth/800) > 0.5 {
		t.Fatalf("total avg = %v", res.PrivateClean.Value)
	}
}

func TestAnalystGroupBy(t *testing.T) {
	r := courseEvals(t, 1000)
	view := release(t, r, 0.1, 0.5, 19)
	analyst := NewAnalyst(view)
	res, err := analyst.Query("SELECT count(1) FROM evals GROUP BY major")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) == 0 {
		t.Fatalf("groups = %+v", res)
	}
	var pcTotal, directTotal float64
	for _, g := range res.Groups {
		pcTotal += g.PrivateClean.Value
		directTotal += g.Direct
	}
	if directTotal != 1000 {
		t.Fatalf("direct group total = %v", directTotal)
	}
	if math.Abs(pcTotal-1000) > 100 {
		t.Fatalf("corrected group total = %v", pcTotal)
	}
	// GROUP BY sum and avg use the corrected per-group estimators.
	sumRes, err := analyst.Query("SELECT sum(score) FROM evals GROUP BY major")
	if err != nil {
		t.Fatal(err)
	}
	if len(sumRes.Groups) == 0 {
		t.Fatalf("group sum = %+v", sumRes)
	}
	avgRes, err := analyst.Query("SELECT avg(score) FROM evals GROUP BY major")
	if err != nil {
		t.Fatal(err)
	}
	for g, ge := range avgRes.Groups {
		if ge.PrivateClean.Value < -1 || ge.PrivateClean.Value > 7 {
			t.Fatalf("group %q avg = %v out of plausible range", g, ge.PrivateClean.Value)
		}
	}
	// GROUP BY with an extension aggregate is rejected.
	if _, err := analyst.Query("SELECT median(score) FROM evals GROUP BY major"); err == nil {
		t.Fatal("GROUP BY median should be rejected")
	}
}

func TestAnalystQueryErrors(t *testing.T) {
	r := courseEvals(t, 100)
	view := release(t, r, 0.1, 0.5, 23)
	analyst := NewAnalyst(view)
	if _, err := analyst.Query("not sql"); err == nil {
		t.Fatal("want parse error")
	}
	if _, err := analyst.Query("SELECT sum(nope) FROM R"); err == nil {
		t.Fatal("want unknown-column error")
	}
	if _, err := analyst.Query("SELECT avg(nope) FROM R"); err == nil {
		t.Fatal("want unknown-column error for avg")
	}
	if _, err := analyst.Query("SELECT count(1) FROM R WHERE nope = 'x'"); err == nil {
		t.Fatal("want unknown-attribute error")
	}
}

func TestAnalystSessionIsolation(t *testing.T) {
	r := courseEvals(t, 200)
	view := release(t, r, 0.1, 0.5, 31)
	a1 := NewAnalyst(view)
	if err := a1.Clean(cleaning.FindReplace{Attr: "major", From: "Math", To: "Mathematics"}); err != nil {
		t.Fatal(err)
	}
	a2 := NewAnalyst(view)
	dom, err := a2.Relation().Domain("major")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range dom {
		if v == "Mathematics" {
			t.Fatal("cleaning in one session leaked into another")
		}
	}
	// Accessors exist and are wired.
	if a1.meta != view.Meta || a1.prov == nil || a1.Estimator() == nil {
		t.Fatal("accessors broken")
	}
}

// End-to-end determinism: the same seed yields the identical view and
// estimates.
func TestEndToEndDeterminism(t *testing.T) {
	r := courseEvals(t, 300)
	run := func() float64 {
		view := release(t, r, 0.2, 1, 99)
		analyst := NewAnalyst(view)
		if err := analyst.Clean(cleaning.FindReplace{Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering"}); err != nil {
			t.Fatal(err)
		}
		res, err := analyst.Query("SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'")
		if err != nil {
			t.Fatal(err)
		}
		return res.PrivateClean.Value
	}
	if run() != run() {
		t.Fatal("same seed should give identical results")
	}
}

// Full pipeline property over many seeds: the corrected count averages to
// the true (cleaned) count.
func TestPipelineUnbiasedMonteCarlo(t *testing.T) {
	r := courseEvals(t, 1000)
	merge := cleaning.FindReplace{Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering"}
	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, merge); err != nil {
		t.Fatal(err)
	}
	truth := 0.0
	for _, v := range rClean.MustDiscrete("major") {
		if v == "Mechanical Engineering" {
			truth++
		}
	}
	const trials = 200
	acc := 0.0
	for i := 0; i < trials; i++ {
		view := release(t, r, 0.25, 0.5, int64(1000+i))
		analyst := NewAnalyst(view)
		if err := analyst.Clean(merge); err != nil {
			t.Fatal(err)
		}
		res, err := analyst.Query("SELECT count(1) FROM R WHERE major = 'Mechanical Engineering'")
		if err != nil {
			t.Fatal(err)
		}
		acc += res.PrivateClean.Value
	}
	mean := acc / trials
	if math.Abs(mean-truth)/truth > 0.05 {
		t.Fatalf("pipeline mean = %v, want ~%v", mean, truth)
	}
}
