package privateclean_test

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/cleaning"
	"privateclean/internal/core"
	"privateclean/internal/csvio"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/provenance"
	"privateclean/internal/query"
	"privateclean/internal/relation"
	"privateclean/internal/workload"
)

// TestFullWorkflowAcrossSerialization exercises the complete provider →
// analyst pipeline with a CSV + JSON round trip in the middle, mirroring
// what the CLI does across process boundaries: privatize, serialize,
// deserialize, clean, serialize provenance, deserialize, estimate.
func TestFullWorkflowAcrossSerialization(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	r, err := workload.MCAFE(rng, workload.MCAFEConfig{})
	if err != nil {
		t.Fatal(err)
	}

	merge := cleaning.Transform{Attr: "country", Label: "europe", F: func(v string) string {
		if workload.IsEurope(v) {
			return "Europe"
		}
		return v
	}}

	// Ground truth.
	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, merge); err != nil {
		t.Fatal(err)
	}
	count, err := new(estimator.Estimator).Nominal().Count(rClean, estimator.Eq("country", "Europe"))
	if err != nil {
		t.Fatal(err)
	}
	truth := count.Value

	// Provider side.
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.15, 0.8))
	if err != nil {
		t.Fatal(err)
	}

	// Serialize the view as CSV and the metadata as JSON, then read both
	// back (scores must round trip as numerics, countries as strings).
	dir := t.TempDir()
	viewPath := dir + "/view.csv"
	if err := csvio.WriteFile(viewPath, v); err != nil {
		t.Fatal(err)
	}
	vBack, err := csvio.ReadFile(viewPath, csvio.Options{
		ForceKinds: map[string]relation.Kind{"country": relation.Discrete},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(vBack) {
		t.Fatal("view CSV round trip mismatch")
	}
	metaJSON, err := json.Marshal(meta)
	if err != nil {
		t.Fatal(err)
	}
	metaBack := &privacy.ViewMeta{}
	if err := json.Unmarshal(metaJSON, metaBack); err != nil {
		t.Fatal(err)
	}
	if metaBack.Discrete["country"].P != 0.15 || metaBack.Discrete["country"].N() != meta.Discrete["country"].N() {
		t.Fatalf("metadata round trip mismatch: %+v", metaBack.Discrete["country"])
	}

	// Analyst side: clean with provenance, then serialize provenance.
	prov := provenance.NewStore()
	if err := cleaning.Apply(&cleaning.Context{Rel: vBack, Prov: prov, Meta: metaBack}, merge); err != nil {
		t.Fatal(err)
	}
	provJSON, err := json.Marshal(prov)
	if err != nil {
		t.Fatal(err)
	}
	provBack := provenance.NewStore()
	if err := json.Unmarshal(provJSON, provBack); err != nil {
		t.Fatal(err)
	}
	g1, _ := prov.Graph("country")
	g2, ok := provBack.Graph("country")
	if !ok || g1.DomainSize() != g2.DomainSize() {
		t.Fatal("provenance round trip lost the graph")
	}
	isEurope := func(s string) bool { return s == "Europe" }
	if g1.Selectivity(isEurope) != g2.Selectivity(isEurope) {
		t.Fatal("provenance round trip changed the cut")
	}

	// Estimate with everything deserialized.
	est := &estimator.Estimator{Meta: metaBack, Prov: provBack}
	got, err := est.Count(vBack, estimator.Eq("country", "Europe"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got.Value-truth) > truth*0.6+20 {
		t.Fatalf("estimate %v too far from truth %v", got.Value, truth)
	}
}

// TestAnalystMatchesExecOnTruth cross-checks the two execution paths: for a
// noiseless release (p=0, b=0) the analyst's Direct results must equal
// query.Exec's exact results on the same relation.
func TestAnalystMatchesExecOnTruth(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: 500, N: 20})
	if err != nil {
		t.Fatal(err)
	}
	provider := core.NewProvider(r)
	view, err := provider.Release(rng, privacy.Uniform(r.Schema(), 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	analyst := core.NewAnalyst(view)

	for _, sql := range []string{
		"SELECT count(1) FROM R WHERE category = 'v000'",
		"SELECT sum(value) FROM R WHERE category IN ('v000', 'v001')",
		"SELECT avg(value) FROM R WHERE category != 'v000'",
		"SELECT count(1) FROM R",
		"SELECT sum(value) FROM R",
		"SELECT median(value) FROM R",
	} {
		q, err := query.Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		exact, err := query.Exec(r, q, nil)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		res, err := analyst.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if math.Abs(res.Direct-exact.Scalar) > 1e-9 {
			t.Fatalf("%s: analyst direct %v != exact %v", sql, res.Direct, exact.Scalar)
		}
	}
}

// TestEndToEndBiasAcrossWholeStack is the repository's headline invariant:
// averaged over many complete pipelines (generate → privatize → clean →
// parse SQL → estimate), the PrivateClean answer converges on the cleaned
// non-private truth.
func TestEndToEndBiasAcrossWholeStack(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	baseRNG := rand.New(rand.NewSource(11))
	r, err := workload.Synthetic(baseRNG, workload.SyntheticConfig{S: 1000, N: 30, Z: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	merge := cleaning.DictionaryMerge{Attr: "category", Mapping: map[string]string{
		"v005": "v004",
		"v006": "v004",
	}}
	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, merge); err != nil {
		t.Fatal(err)
	}
	q, err := query.Parse("SELECT count(1) FROM R WHERE category = 'v004'")
	if err != nil {
		t.Fatal(err)
	}
	truthRes, err := query.Exec(rClean, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	truth := truthRes.Scalar

	const trials = 200
	acc := 0.0
	provider := core.NewProvider(r)
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(100 + i)))
		view, err := provider.Release(rng, privacy.Uniform(r.Schema(), 0.25, 5))
		if err != nil {
			t.Fatal(err)
		}
		analyst := core.NewAnalyst(view)
		if err := analyst.Clean(merge); err != nil {
			t.Fatal(err)
		}
		res, err := analyst.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		acc += res.PrivateClean.Value
	}
	mean := acc / trials
	if math.Abs(mean-truth)/truth > 0.06 {
		t.Fatalf("whole-stack mean = %v, want ~%v", mean, truth)
	}
}
