package estimator

import (
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
	"privateclean/internal/stats"
)

// gaussRel builds a relation whose value column is Gaussian per category so
// medians and variances are known.
func gaussRel(t *testing.T, seed int64) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := 4000
	cats := make([]string, n)
	vals := make([]float64, n)
	for i := range cats {
		if i%4 == 0 {
			cats[i] = "a"
			vals[i] = 50 + rng.NormFloat64()*5
		} else {
			cats[i] = "b"
			vals[i] = 20 + rng.NormFloat64()*3
		}
	}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestMedianRecoversTrueMedian(t *testing.T) {
	r := gaussRel(t, 1)
	vals, err := matchedValues(r, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	truth, err := stats.Quantile(vals, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	v, meta := privatized(t, r, 2, 0.1, 4)
	est := &Estimator{Meta: meta}
	got, err := est.Median(v, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	// Laplace noise has median zero; the sample median should sit near the
	// truth despite b=4 noise (sd ~5.7).
	if math.Abs(got.Value-truth) > 2.5 {
		t.Fatalf("median = %v, truth %v", got.Value, truth)
	}
	if got.CI <= 0 {
		t.Fatal("median CI should be positive")
	}
}

func TestPercentileBoundsAndErrors(t *testing.T) {
	r := gaussRel(t, 3)
	v, meta := privatized(t, r, 4, 0.1, 1)
	est := &Estimator{Meta: meta}
	p10, err := est.Percentile(v, "value", Eq("category", "b"), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	p90, err := est.Percentile(v, "value", Eq("category", "b"), 0.9)
	if err != nil {
		t.Fatal(err)
	}
	if p10.Value >= p90.Value {
		t.Fatalf("p10 %v should be below p90 %v", p10.Value, p90.Value)
	}
	// Extreme quantiles clamp their interval bounds without error.
	if _, err := est.Percentile(v, "value", Eq("category", "b"), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Percentile(v, "value", Eq("category", "b"), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := est.Percentile(v, "value", Eq("category", "b"), 1.5); err == nil {
		t.Fatal("want error for q > 1")
	}
	if _, err := est.Percentile(v, "value", Eq("category", "zzz"), 0.5); err == nil {
		t.Fatal("want error for empty selection")
	}
	if _, err := est.Percentile(v, "nope", Eq("category", "b"), 0.5); err == nil {
		t.Fatal("want error for unknown attribute")
	}
}

func TestVarCorrectsNoise(t *testing.T) {
	r := gaussRel(t, 5)
	truth, err := new(Estimator).Nominal().Var(r, "value", Eq("category", "b"))
	if err != nil {
		t.Fatal(err)
	}
	// truth ~ 9 (sd 3).
	const b = 6.0
	v, meta := privatized(t, r, 8, 0.05, b)
	est := &Estimator{Meta: meta}
	corrected, err := est.Var(v, "value", Eq("category", "b"))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := est.Nominal().Var(v, "value", Eq("category", "b"))
	if err != nil {
		t.Fatal(err)
	}
	// Raw variance includes the 2b² = 72 noise variance; corrected should
	// land near the truth.
	if raw.Value < truth.Value+40 {
		t.Fatalf("raw variance %v should be inflated well above truth %v", raw.Value, truth.Value)
	}
	if math.Abs(corrected.Value-truth.Value) > truth.Value*0.6 {
		t.Fatalf("corrected variance %v, truth %v", corrected.Value, truth.Value)
	}
}

func TestVarClampsAtZero(t *testing.T) {
	// A constant column: true variance 0; the corrected estimate must not
	// go negative.
	n := 500
	cats := make([]string, n)
	vals := make([]float64, n)
	for i := range cats {
		cats[i] = "a"
		vals[i] = 7
	}
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": vals},
		map[string][]string{"category": cats})
	if err != nil {
		t.Fatal(err)
	}
	v, meta := privatized(t, r, 7, 0.05, 3)
	est := &Estimator{Meta: meta}
	got, err := est.Var(v, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Value < 0 {
		t.Fatalf("variance = %v, must be >= 0", got.Value)
	}
	if got.Value > 30 {
		t.Fatalf("variance = %v, want near 0 for a constant column", got.Value)
	}
}

func TestStdIsSqrtOfVar(t *testing.T) {
	r := gaussRel(t, 8)
	v, meta := privatized(t, r, 9, 0.05, 2)
	est := &Estimator{Meta: meta}
	vr, err := est.Var(v, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	sd, err := est.Std(v, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sd.Value-math.Sqrt(vr.Value)) > 1e-9 {
		t.Fatalf("std %v != sqrt(var %v)", sd.Value, vr.Value)
	}
}

func TestVarErrors(t *testing.T) {
	r := gaussRel(t, 10)
	v, meta := privatized(t, r, 11, 0.05, 2)
	if _, err := (&Estimator{}).Var(v, "value", Eq("category", "a")); err == nil {
		t.Fatal("want error for nil metadata")
	}
	est := &Estimator{Meta: meta}
	if _, err := est.Var(v, "nope", Eq("category", "a")); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if _, err := est.Var(v, "value", Eq("category", "zzz")); err == nil {
		t.Fatal("want error for empty selection")
	}
	if _, err := est.Std(v, "value", Eq("category", "zzz")); err == nil {
		t.Fatal("want error propagated through Std")
	}
	if _, err := est.Nominal().Var(v, "value", Eq("category", "zzz")); err == nil {
		t.Fatal("want error for direct variance of empty selection")
	}
	if _, err := est.Nominal().Median(v, "value", Eq("category", "zzz")); err == nil {
		t.Fatal("want error for direct median of empty selection")
	}
}

func TestMatchedValuesNilPredicate(t *testing.T) {
	r := gaussRel(t, 12)
	vals, err := matchedValues(r, "value", Predicate{})
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != r.NumRows() {
		t.Fatalf("nil predicate selected %d of %d rows", len(vals), r.NumRows())
	}
}

func TestMedianSkipsNaN(t *testing.T) {
	r, err := relation.FromColumns(testSchema,
		map[string][]float64{"value": {1, math.NaN(), 3}},
		map[string][]string{"category": {"a", "a", "a"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := &privacy.ViewMeta{
		Discrete: map[string]privacy.DiscreteMeta{"category": {Name: "category", P: 0.1, Domain: []string{"a"}}},
		// Bins [0,1) [1,2) [2,3) [3,4]: 1 and 3 put the median at 2, the
		// right edge of 1's bin; a NaN counted into an end bin would move it.
		Numeric: map[string]privacy.NumericMeta{"value": {Name: "value", B: 0, Lo: 0, Delta: 4, Bins: 4}},
	}
	est := &Estimator{Meta: meta}
	got, err := est.Median(r, "value", Eq("category", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Value != 2 {
		t.Fatalf("median = %v, want 2 (NaN skipped)", got.Value)
	}
}
