package estimator

import (
	"math"
	"math/rand"
	"testing"

	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

var conjSchema = relation.MustSchema(
	relation.Column{Name: "major", Kind: relation.Discrete},
	relation.Column{Name: "section", Kind: relation.Discrete},
	relation.Column{Name: "score", Kind: relation.Numeric},
)

// conjRel builds a two-discrete-attribute relation with a known joint
// distribution: majors {ME, EE, CS} and sections {1, 2}, correlated so the
// conjunction count differs from the product of marginals.
func conjRel(t *testing.T) *relation.Relation {
	t.Helper()
	type cell struct {
		major, section string
		count          int
		score          float64
	}
	cells := []cell{
		{"ME", "1", 300, 4},
		{"ME", "2", 50, 3},
		{"EE", "1", 100, 2},
		{"EE", "2", 250, 5},
		{"CS", "1", 50, 1},
		{"CS", "2", 250, 2},
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

func TestDirectConjunction(t *testing.T) {
	r := conjRel(t)
	preds := []Predicate{Eq("major", "ME"), Eq("section", "1")}
	d := new(Estimator).Nominal()
	c, err := d.CountConj(r, preds...)
	if err != nil || c.Value != 300 {
		t.Fatalf("count = %v, %v", c, err)
	}
	s, err := d.SumConj(r, "score", preds...)
	if err != nil || s.Value != 1200 {
		t.Fatalf("sum = %v, %v", s, err)
	}
	a, err := d.AvgConj(r, "score", preds...)
	if err != nil || a.Value != 4 {
		t.Fatalf("avg = %v, %v", a, err)
	}
	if _, err := d.AvgConj(r, "score", Eq("major", "nope"), Eq("section", "1")); err == nil {
		t.Fatal("want error for empty conjunction")
	}
	if _, err := d.CountConj(r); err == nil {
		t.Fatal("want error for no predicates")
	}
	if _, err := d.CountConj(r, Eq("nope", "x")); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if _, err := d.SumConj(r, "nope", preds...); err == nil {
		t.Fatal("want error for unknown aggregate")
	}
}

// Monte Carlo: the tensor-product inversion is unbiased for conjunction
// counts and sums under two independently randomized attributes.
func TestConjunctionUnbiased(t *testing.T) {
	r := conjRel(t)
	preds := []Predicate{Eq("major", "ME"), Eq("section", "1")}
	truthCount := 300.0
	truthSum := 1200.0
	const trials = 400
	var cAcc, hAcc, cDirectAcc float64
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(20000 + i)))
		v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.25, 2))
		if err != nil {
			t.Fatal(err)
		}
		est := &Estimator{Meta: meta}
		c, err := est.CountConj(v, preds...)
		if err != nil {
			t.Fatal(err)
		}
		cAcc += c.Value
		h, err := est.SumConj(v, "score", preds...)
		if err != nil {
			t.Fatal(err)
		}
		hAcc += h.Value
		d, err := est.Nominal().CountConj(v, preds...)
		if err != nil {
			t.Fatal(err)
		}
		cDirectAcc += d.Value
	}
	cMean := cAcc / trials
	hMean := hAcc / trials
	dMean := cDirectAcc / trials
	if math.Abs(cMean-truthCount)/truthCount > 0.05 {
		t.Fatalf("conjunction count mean = %v, want ~%v", cMean, truthCount)
	}
	if math.Abs(hMean-truthSum)/truthSum > 0.05 {
		t.Fatalf("conjunction sum mean = %v, want ~%v", hMean, truthSum)
	}
	// Direct is visibly biased: each attribute leaks mass independently.
	if math.Abs(dMean-truthCount)/truthCount < 0.1 {
		t.Fatalf("direct conjunction mean = %v suspiciously close to truth", dMean)
	}
}

func TestConjunctionSinglePredicateMatchesCount(t *testing.T) {
	r := conjRel(t)
	rng := rand.New(rand.NewSource(5))
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Meta: meta}
	pred := Eq("major", "EE")
	single, err := est.Count(v, pred)
	if err != nil {
		t.Fatal(err)
	}
	conj, err := est.CountConj(v, pred)
	if err != nil {
		t.Fatal(err)
	}
	// The one-predicate conjunction estimator is algebraically the Eq. 3
	// estimator: (c_priv - S·τ_n)/(1-p) = Σ w per row.
	if math.Abs(single.Value-conj.Value) > 1e-6 {
		t.Fatalf("single %v vs conj %v", single.Value, conj.Value)
	}
}

func TestConjunctionAvg(t *testing.T) {
	r := conjRel(t)
	const trials = 200
	var acc float64
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(30000 + i)))
		v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.15, 1))
		if err != nil {
			t.Fatal(err)
		}
		est := &Estimator{Meta: meta}
		a, err := est.AvgConj(v, "score", Eq("major", "EE"), Eq("section", "2"))
		if err != nil {
			t.Fatal(err)
		}
		acc += a.Value
	}
	mean := acc / trials
	if math.Abs(mean-5) > 0.3 {
		t.Fatalf("conjunction avg mean = %v, want ~5", mean)
	}
}

func TestConjunctionErrors(t *testing.T) {
	r := conjRel(t)
	rng := rand.New(rand.NewSource(6))
	v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.2, 1))
	if err != nil {
		t.Fatal(err)
	}
	est := &Estimator{Meta: meta}
	if _, err := est.CountConj(v); err == nil {
		t.Fatal("want error for no predicates")
	}
	if _, err := est.CountConj(v, Eq("major", "a"), Eq("major", "b")); err == nil {
		t.Fatal("want error for duplicate attribute")
	}
	if _, err := est.CountConj(v, Eq("nope", "a")); err == nil {
		t.Fatal("want error for unknown attribute")
	}
	if _, err := est.SumConj(v, "nope", Eq("major", "a")); err == nil {
		t.Fatal("want error for unknown aggregate")
	}
	empty := relation.New(conjSchema)
	if _, err := est.CountConj(empty, Eq("major", "a")); err == nil {
		t.Fatal("want error for empty relation")
	}
	if _, err := est.SumConj(empty, "score", Eq("major", "a")); err == nil {
		t.Fatal("want error for empty relation sum")
	}
}

// The nominal conjunctions validate like the corrected ones: two
// predicates on one attribute are refused, where nominal conjunctions used
// to intersect them into a count of zero.
func TestDirectConjRejectsRepeatedAttribute(t *testing.T) {
	r := conjRel(t)
	est := &Estimator{Meta: &privacy.ViewMeta{Discrete: map[string]privacy.DiscreteMeta{
		"major": {Name: "major", P: 0.2, Domain: []string{"CS", "EE", "ME"}},
	}}}
	preds := []Predicate{Eq("major", "EE"), Eq("major", "ME")}
	_, want := est.CountConj(r, preds...)
	if want == nil {
		t.Fatal("CountConj accepted two predicates on one attribute")
	}
	d := est.Nominal()
	_, err1 := d.CountConj(r, preds...)
	_, err2 := d.SumConj(r, "score", preds...)
	_, err3 := d.AvgConj(r, "score", preds...)
	for i, err := range []error{err1, err2, err3} {
		if err == nil || err.Error() != want.Error() {
			t.Errorf("Direct conjunction %d: error %v, want %v", i, err, want)
		}
	}
	if _, err := d.CountConj(r); err == nil {
		t.Error("nominal CountConj accepted no predicates")
	}
}

func TestConjunctionCICoverage(t *testing.T) {
	r := conjRel(t)
	preds := []Predicate{Eq("major", "EE"), Eq("section", "2")}
	truth := 250.0
	const trials = 300
	covered := 0
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(40000 + i)))
		v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(r.Schema(), 0.2, 1))
		if err != nil {
			t.Fatal(err)
		}
		est := &Estimator{Meta: meta, Confidence: 0.95}
		got, err := est.CountConj(v, preds...)
		if err != nil {
			t.Fatal(err)
		}
		if got.Lo() <= truth && truth <= got.Hi() {
			covered++
		}
	}
	rate := float64(covered) / trials
	if rate < 0.9 {
		t.Fatalf("conjunction CI coverage = %v", rate)
	}
}
