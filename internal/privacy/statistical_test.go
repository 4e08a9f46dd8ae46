package privacy

import (
	"math/rand"
	"testing"

	"privateclean/internal/relation"
	"privateclean/internal/stats"
	"privateclean/internal/stats/statcheck"
)

// The GRR distributional regression: after randomized response with
// probability p, the expected frequency of domain value v in the private
// view is e_v = (1-p)*c_v + p*S/N (keep your value w.p. 1-p, or land on v
// from a uniform domain draw w.p. p/N from any of the S rows). A chi-square
// goodness-of-fit against that expectation, with deterministic seeds, locks
// the mechanism's sampling distribution — a regression in the keep/resample
// split or the uniform draw shifts the statistic by orders of magnitude.

// grrRel builds a two-attribute relation with skewed value counts.
func grrRel(t *testing.T) (*relation.Relation, map[string]map[string]int) {
	t.Helper()
	countsA := map[string]int{"a0": 1200, "a1": 900, "a2": 700, "a3": 600, "a4": 600}
	countsB := map[string]int{"b0": 2500, "b1": 1000, "b2": 500}
	var av, bv []string
	for _, v := range []string{"a0", "a1", "a2", "a3", "a4"} {
		for i := 0; i < countsA[v]; i++ {
			av = append(av, v)
		}
	}
	for _, v := range []string{"b0", "b1", "b2"} {
		for i := 0; i < countsB[v]; i++ {
			bv = append(bv, v)
		}
	}
	schema := relation.MustSchema(
		relation.Column{Name: "attr_a", Kind: relation.Discrete},
		relation.Column{Name: "attr_b", Kind: relation.Discrete},
	)
	r, err := relation.FromColumns(schema, nil, map[string][]string{"attr_a": av, "attr_b": bv})
	if err != nil {
		t.Fatal(err)
	}
	return r, map[string]map[string]int{"attr_a": countsA, "attr_b": countsB}
}

// chiSquareGRR computes the goodness-of-fit p-value of a privatized view's
// value frequencies for one attribute against the GRR expectation under
// probability p.
func chiSquareGRR(t *testing.T, view *relation.Relation, attr string, counts map[string]int, p float64) float64 {
	t.Helper()
	s := 0
	for _, c := range counts {
		s += c
	}
	n := len(counts)
	observed := make(map[string]int, n)
	col, err := view.Discrete(attr)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range col {
		observed[v]++
	}
	var chi2 float64
	for v, c := range counts {
		e := (1-p)*float64(c) + p*float64(s)/float64(n)
		d := float64(observed[v]) - e
		chi2 += d * d / e
	}
	pval, err := stats.ChiSquareSurvival(chi2, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return pval
}

// privatizedView privatizes r once under a fixed seed.
func privatizedView(t *testing.T, r *relation.Relation, seed int64, params Params) *relation.Relation {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	view, _, err := Privatize(rng, r, params)
	if err != nil {
		t.Fatal(err)
	}
	return view
}

// chiSquareMech generalizes chiSquareGRR to every mechanism name by reading
// the expectation off the mechanism's closed form (closedForm, from its own
// paper): a row holding v reports v with probability keep, and a row holding
// anything else lands on v with probability move, so
// e_v = keep*c_v + move*(S - c_v). The sampler draws GRR at GRRP's mapped p,
// so these rows check the mapping end to end.
func chiSquareMech(t *testing.T, mechName string, view *relation.Relation, attr string, counts map[string]int, p float64) float64 {
	t.Helper()
	s := 0
	for _, c := range counts {
		s += c
	}
	n := len(counts)
	tauP, tauN := closedForm(mechName, p, n)
	observed := make(map[string]int, n)
	col, err := view.Discrete(attr)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range col {
		observed[v]++
	}
	var chi2 float64
	for v, c := range counts {
		e := tauP*float64(c) + tauN*float64(s-c)
		d := float64(observed[v]) - e
		chi2 += d * d / e
	}
	pval, err := stats.ChiSquareSurvival(chi2, n-1)
	if err != nil {
		t.Fatal(err)
	}
	return pval
}

// binaryRel builds a single skewed 2-value attribute for the rrbin suite.
func binaryRel(t *testing.T) (*relation.Relation, map[string]int) {
	t.Helper()
	counts := map[string]int{"no": 3200, "yes": 1800}
	var col []string
	for _, v := range []string{"no", "yes"} {
		for i := 0; i < counts[v]; i++ {
			col = append(col, v)
		}
	}
	schema := relation.MustSchema(relation.Column{Name: "flag", Kind: relation.Discrete})
	r, err := relation.FromColumns(schema, nil, map[string][]string{"flag": col})
	if err != nil {
		t.Fatal(err)
	}
	return r, counts
}

// TestMechanismFrequenciesChiSquare is the mechanism-distribution table:
// one goodness-of-fit row per (mechanism × attribute) plus the power rows
// proving the statistic rejects a wrong channel. The seeds and thresholds
// carry over from the pre-harness suite; statcheck.RunPValues owns the
// assertion rules (see docs/TESTING.md).
func TestMechanismFrequenciesChiSquare(t *testing.T) {
	grr, grrCounts := grrRel(t)
	bin, binCounts := binaryRel(t)
	grrParams := Params{P: map[string]float64{"attr_a": 0.3, "attr_b": 0.15}, B: map[string]float64{}}
	krrParams := Params{P: map[string]float64{"attr_a": 0.3, "attr_b": 0.15}, B: map[string]float64{}, Mechanism: MechKRR}
	binParams := Params{P: map[string]float64{"flag": 0.25}, B: map[string]float64{}, Mechanism: MechRRBin}

	var rows []statcheck.PValueRow
	for _, attr := range []string{"attr_a", "attr_b"} {
		attr := attr
		rows = append(rows,
			statcheck.PValueRow{
				Name: "grr/" + attr, Trials: 20, Seed: 31000,
				Run: func(t *testing.T, seed int64) float64 {
					view := privatizedView(t, grr, seed, grrParams)
					return chiSquareGRR(t, view, attr, grrCounts[attr], grrParams.P[attr])
				},
			},
			statcheck.PValueRow{
				Name: "krr/" + attr, Trials: 20, Seed: 33000,
				Run: func(t *testing.T, seed int64) float64 {
					view := privatizedView(t, grr, seed, krrParams)
					return chiSquareMech(t, MechKRR, view, attr, grrCounts[attr], krrParams.P[attr])
				},
			},
		)
	}
	rows = append(rows,
		statcheck.PValueRow{
			Name: "rrbin/flag", Trials: 20, Seed: 33000,
			Run: func(t *testing.T, seed int64) float64 {
				view := privatizedView(t, bin, seed, binParams)
				return chiSquareMech(t, MechRRBin, view, "flag", binCounts, 0.25)
			},
		},
		// Cross-mechanism power: k-RR output tested against the GRR
		// expectation at the same p must reject — the two channels differ
		// exactly by whether a resample can land back on the input.
		statcheck.PValueRow{
			Name: "power/krr-against-grr-null", Trials: 5, Seed: 34000, Power: true,
			Run: func(t *testing.T, seed int64) float64 {
				params := Params{P: map[string]float64{"attr_a": 0.5, "attr_b": 0.5}, B: map[string]float64{}, Mechanism: MechKRR}
				view := privatizedView(t, grr, seed, params)
				return chiSquareMech(t, MechGRR, view, "attr_b", grrCounts["attr_b"], 0.5)
			},
		},
		// Wrong-p power: the same statistic against an expectation computed
		// with the wrong p must reject decisively.
		statcheck.PValueRow{
			Name: "power/grr-wrong-p", Trials: 5, Seed: 32000, Power: true,
			Run: func(t *testing.T, seed int64) float64 {
				params := Params{P: map[string]float64{"attr_a": 0.3, "attr_b": 0.3}, B: map[string]float64{}}
				view := privatizedView(t, grr, seed, params)
				return chiSquareGRR(t, view, "attr_a", grrCounts["attr_a"], 0.7)
			},
		},
	)
	statcheck.RunPValues(t, rows)
}
