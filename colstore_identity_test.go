package privateclean_test

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/colstore"
	"privateclean/internal/csvio"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/workload"
)

// sameBits reports whether two floats are bit-identical (NaN == NaN,
// -0 != +0): the acceptance bar for the columnar path is byte identity,
// not approximate equality.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// colstoreTwin runs a privatized relation through the exact pipeline `pc
// pack` uses — CSV bytes, CSV load, .pcol encode, .pcol decode — and
// returns the CSV-loaded relation alongside its columnar twin.
func colstoreTwin(t *testing.T, rel *relation.Relation) (csvRel, colRel *relation.Relation) {
	t.Helper()
	var csvBuf bytes.Buffer
	if err := csvio.Write(&csvBuf, rel); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]relation.Kind{}
	for _, c := range rel.Schema().Columns() {
		kinds[c.Name] = c.Kind
	}
	csvRel, _, err := csvio.ReadWithReport(bytes.NewReader(csvBuf.Bytes()), csvio.Options{ForceKinds: kinds})
	if err != nil {
		t.Fatal(err)
	}
	var colBuf bytes.Buffer
	if _, err := colstore.Write(&colBuf, csvRel); err != nil {
		t.Fatal(err)
	}
	colRel, err = colstore.Decode(colBuf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return csvRel, colRel
}

// checkEstimate compares one estimator call across the two backings at the
// bit level.
func checkEstimate(t *testing.T, name string, csvEst, colEst estimator.Estimate, csvErr, colErr error) {
	t.Helper()
	if (csvErr == nil) != (colErr == nil) {
		t.Fatalf("%s: csv err %v, colstore err %v", name, csvErr, colErr)
	}
	if csvErr != nil {
		return
	}
	if !sameBits(csvEst.Value, colEst.Value) || !sameBits(csvEst.CI, colEst.CI) {
		t.Errorf("%s: csv (%x, %x) != colstore (%x, %x)",
			name, math.Float64bits(csvEst.Value), math.Float64bits(csvEst.CI),
			math.Float64bits(colEst.Value), math.Float64bits(colEst.CI))
	}
}

// TestColstoreEstimateIdentitySynthetic runs the Figure-2 workload (the
// paper's synthetic single-attribute relation) through privatization, loads
// it via both the CSV and the .pcol path, and requires every corrected
// estimate — count, sum, avg, across equality, set, and negation
// predicates, cached and uncached — to be bit-identical between the two
// backings.
func TestColstoreEstimateIdentitySynthetic(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	r, err := workload.Synthetic(rng, workload.SyntheticConfig{S: 10000})
	if err != nil {
		t.Fatal(err)
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.1, 10))
	if err != nil {
		t.Fatal(err)
	}
	csvRel, colRel := colstoreTwin(t, v)

	// Independent estimators with independent caches: the caches must not
	// leak state across backings, and the cached second pass must stay
	// bit-identical too.
	csvEst := &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}
	colEst := &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}

	preds := []struct {
		name string
		p    estimator.Predicate
	}{
		{"eq", estimator.Eq("category", workload.CategoryValue(0))},
		{"eq-rare", estimator.Eq("category", workload.CategoryValue(47))},
		{"in3", estimator.In("category", workload.CategoryValue(0), workload.CategoryValue(3), workload.CategoryValue(7))},
		{"noteq", estimator.NotEq("category", workload.CategoryValue(1))},
	}
	for pass := 0; pass < 2; pass++ { // second pass hits the warm cache
		for _, pc := range preds {
			a, aerr := csvEst.Count(csvRel, pc.p)
			b, berr := colEst.Count(colRel, pc.p)
			checkEstimate(t, pc.name+"/count", a, b, aerr, berr)
			a, aerr = csvEst.Sum(csvRel, "value", pc.p)
			b, berr = colEst.Sum(colRel, "value", pc.p)
			checkEstimate(t, pc.name+"/sum", a, b, aerr, berr)
			a, aerr = csvEst.Avg(csvRel, "value", pc.p)
			b, berr = colEst.Avg(colRel, "value", pc.p)
			checkEstimate(t, pc.name+"/avg", a, b, aerr, berr)
		}
	}
}

// TestColstoreEstimateIdentityConj covers the conjunction estimators on the
// two-attribute workload, including the direct (uncorrected) aggregates.
func TestColstoreEstimateIdentityConj(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	r, err := workload.MultiAttr(rng, workload.MultiAttrConfig{S: 5000})
	if err != nil {
		t.Fatal(err)
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.15, 5))
	if err != nil {
		t.Fatal(err)
	}
	csvRel, colRel := colstoreTwin(t, v)
	csvEst := &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}
	colEst := &estimator.Estimator{Meta: meta, Cache: estimator.NewChannelCache()}

	preds := []estimator.Predicate{
		estimator.Eq("section", workload.SectionValue(0)),
		estimator.NotEq("instructor", relation.Null),
	}
	a, aerr := csvEst.CountConj(csvRel, preds...)
	b, berr := colEst.CountConj(colRel, preds...)
	checkEstimate(t, "conj/count", a, b, aerr, berr)
	a, aerr = csvEst.SumConj(csvRel, "value", preds...)
	b, berr = colEst.SumConj(colRel, "value", preds...)
	checkEstimate(t, "conj/sum", a, b, aerr, berr)
	a, aerr = csvEst.AvgConj(csvRel, "value", preds...)
	b, berr = colEst.AvgConj(colRel, "value", preds...)
	checkEstimate(t, "conj/avg", a, b, aerr, berr)

	a, aerr = csvEst.Nominal().CountConj(csvRel, preds...)
	b, berr = colEst.Nominal().CountConj(colRel, preds...)
	if aerr != nil || berr != nil {
		t.Fatalf("direct count: %v / %v", aerr, berr)
	}
	checkEstimate(t, "conj/direct-count", a, b, aerr, berr)
	a, aerr = csvEst.Nominal().SumConj(csvRel, "value", preds...)
	b, berr = colEst.Nominal().SumConj(colRel, "value", preds...)
	if aerr != nil || berr != nil {
		t.Fatalf("direct sum: %v / %v", aerr, berr)
	}
	checkEstimate(t, "conj/direct-sum", a, b, aerr, berr)
}

// TestColstoreEstimateIdentityExtensions extends the identity to the
// aggregates answered from the per-code sorted runs, the per-bin moments and
// the row-order gather: median and quantiles (including q = 0 and 1), var
// and std, GROUP BY and GROUP BY bin, cached (cold and warm) and uncached.
func TestColstoreEstimateIdentityExtensions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	r, err := workload.MultiAttr(rng, workload.MultiAttrConfig{S: 5000})
	if err != nil {
		t.Fatal(err)
	}
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.15, 5))
	if err != nil {
		t.Fatal(err)
	}
	csvRel, colRel := colstoreTwin(t, v)
	preds := []estimator.Predicate{
		{}, // no WHERE
		estimator.Eq("section", workload.SectionValue(0)),
		estimator.In("section", workload.SectionValue(1), workload.SectionValue(4), workload.SectionValue(9)),
		estimator.NotEq("instructor", relation.Null),
	}
	groups := func(t *testing.T, name string, a, b map[string]estimator.Estimate, aerr, berr error) {
		t.Helper()
		if (aerr == nil) != (berr == nil) || len(a) != len(b) {
			t.Fatalf("%s: csv %d groups (%v), colstore %d groups (%v)", name, len(a), aerr, len(b), berr)
		}
		for k, e := range a {
			checkEstimate(t, name+"/"+k, e, b[k], nil, nil)
		}
	}
	bins := func(t *testing.T, name string, a, b []estimator.BinEstimate, aerr, berr error) {
		t.Helper()
		if (aerr == nil) != (berr == nil) || len(a) != len(b) {
			t.Fatalf("%s: csv %d bins (%v), colstore %d bins (%v)", name, len(a), aerr, len(b), berr)
		}
		for i := range a {
			checkEstimate(t, name+"/"+a[i].Label, a[i].Est, b[i].Est, nil, nil)
		}
	}
	for _, cached := range []bool{false, true} {
		csvEst := &estimator.Estimator{Meta: meta}
		colEst := &estimator.Estimator{Meta: meta}
		if cached {
			csvEst.Cache, colEst.Cache = estimator.NewChannelCache(), estimator.NewChannelCache()
		}
		for pass := 0; pass < 2; pass++ {
			for i, p := range preds {
				name := fmt.Sprintf("cached=%v/pass%d/p%d", cached, pass, i)
				for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
					a, aerr := csvEst.Percentile(csvRel, "value", p, q)
					b, berr := colEst.Percentile(colRel, "value", p, q)
					checkEstimate(t, fmt.Sprintf("%s/quantile-%v", name, q), a, b, aerr, berr)
					a, aerr = csvEst.Nominal().Percentile(csvRel, "value", p, q)
					b, berr = colEst.Nominal().Percentile(colRel, "value", p, q)
					checkEstimate(t, fmt.Sprintf("%s/direct-quantile-%v", name, q), a, b, aerr, berr)
				}
				a, aerr := csvEst.Median(csvRel, "value", p)
				b, berr := colEst.Median(colRel, "value", p)
				checkEstimate(t, name+"/median", a, b, aerr, berr)
				a, aerr = csvEst.Var(csvRel, "value", p)
				b, berr = colEst.Var(colRel, "value", p)
				checkEstimate(t, name+"/var", a, b, aerr, berr)
				a, aerr = csvEst.Std(csvRel, "value", p)
				b, berr = colEst.Std(colRel, "value", p)
				checkEstimate(t, name+"/std", a, b, aerr, berr)
			}
			name := fmt.Sprintf("cached=%v/pass%d", cached, pass)
			ga, aerr := csvEst.GroupCounts(csvRel, "instructor")
			gb, berr := colEst.GroupCounts(colRel, "instructor")
			groups(t, name+"/group-count", ga, gb, aerr, berr)
			ga, aerr = csvEst.GroupSums(csvRel, "instructor", "value")
			gb, berr = colEst.GroupSums(colRel, "instructor", "value")
			groups(t, name+"/group-sum", ga, gb, aerr, berr)
			ga, aerr = csvEst.GroupAvgs(csvRel, "instructor", "value")
			gb, berr = colEst.GroupAvgs(colRel, "instructor", "value")
			groups(t, name+"/group-avg", ga, gb, aerr, berr)
			ba, aerr := csvEst.GroupBinCounts(csvRel, "value")
			bb, berr := colEst.GroupBinCounts(colRel, "value")
			bins(t, name+"/bin-count", ba, bb, aerr, berr)
			ba, aerr = csvEst.GroupBinSums(csvRel, "value", "value")
			bb, berr = colEst.GroupBinSums(colRel, "value", "value")
			bins(t, name+"/bin-sum", ba, bb, aerr, berr)
			ba, aerr = csvEst.GroupBinAvgs(csvRel, "value", "value")
			bb, berr = colEst.GroupBinAvgs(colRel, "value", "value")
			bins(t, name+"/bin-avg", ba, bb, aerr, berr)
		}
	}
}
