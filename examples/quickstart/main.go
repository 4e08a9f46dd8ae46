// Quickstart: the PrivateClean workflow from Figure 1 of the paper on the
// running course-evaluations example.
//
//  1. The provider holds a dirty relation of (major, satisfaction score)
//     with inconsistent major spellings.
//  2. The provider releases an epsilon-locally-differentially-private view
//     via Generalized Randomized Response.
//  3. The analyst merges the inconsistent spellings on the private view
//     (provenance is recorded automatically) and estimates the average
//     satisfaction of Mechanical Engineers, with a confidence interval.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/core"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

func main() {
	rng := rand.New(rand.NewSource(42))

	// --- Provider side -------------------------------------------------
	r := buildCourseEvals(rng, 1200)
	provider := core.NewProvider(r)

	// p = 0.2: each student's major is replaced with a uniform draw from
	// the observed majors with probability 0.2; scores get Laplace(0.25)
	// noise.
	params := privacy.Uniform(r.Schema(), 0.2, 0.25)
	view, err := provider.Release(rng, params)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("released a private view of %d rows (epsilon = %.2f)\n\n",
		view.Rel.NumRows(), view.Epsilon())

	// --- Analyst side ----------------------------------------------------
	analyst := core.NewAnalyst(view)

	// The analyst notices the alternative spellings while exploring the
	// private view and merges them (Example 1 in the paper).
	err = analyst.Clean(
		cleaning.FindReplace{Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering"},
		cleaning.FindReplace{Attr: "major", From: "Mechanical E.", To: "Mechanical Engineering"},
	)
	if err != nil {
		log.Fatal(err)
	}

	for _, sql := range []string{
		"SELECT count(1) FROM evals WHERE major = 'Mechanical Engineering'",
		"SELECT avg(score) FROM evals WHERE major = 'Mechanical Engineering'",
		"SELECT sum(score) FROM evals WHERE major = 'Mechanical Engineering'",
	} {
		res, err := analyst.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s\n  PrivateClean: %s\n  Direct:       %.4g\n\n",
			sql, res.PrivateClean, res.Direct)
	}

	// Ground truth for comparison (the provider could compute this; the
	// analyst cannot).
	merged := r.Clone()
	ctx := &cleaning.Context{Rel: merged}
	_ = cleaning.Apply(ctx,
		cleaning.FindReplace{Attr: "major", From: "Mech. Eng.", To: "Mechanical Engineering"},
		cleaning.FindReplace{Attr: "major", From: "Mechanical E.", To: "Mechanical Engineering"},
	)
	truth, err := new(estimator.Estimator).Nominal().Avg(merged, "score", estimator.Eq("major", "Mechanical Engineering"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("true average satisfaction of Mechanical Engineers: %.4f\n", truth.Value)
}

var schema = relation.MustSchema(
	relation.Column{Name: "major", Kind: relation.Discrete},
	relation.Column{Name: "score", Kind: relation.Numeric},
)

// buildCourseEvals simulates the dirty evaluations: the Mechanical
// Engineering students (who skew happy) appear under three spellings.
func buildCourseEvals(rng *rand.Rand, n int) *relation.Relation {
	majors := make([]string, n)
	scores := make([]float64, n)
	mechSpellings := []string{"Mechanical Engineering", "Mech. Eng.", "Mechanical E."}
	others := []string{"Electrical Eng.", "Math", "History", "Chemistry", "Physics"}
	for i := 0; i < n; i++ {
		if rng.Float64() < 0.3 {
			majors[i] = mechSpellings[rng.Intn(len(mechSpellings))]
			scores[i] = clamp(4+rng.NormFloat64()*0.6, 0, 5)
		} else {
			majors[i] = others[rng.Intn(len(others))]
			scores[i] = clamp(3+rng.NormFloat64()*1.0, 0, 5)
		}
	}
	r, err := relation.FromColumns(schema,
		map[string][]float64{"score": scores},
		map[string][]string{"major": majors})
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
