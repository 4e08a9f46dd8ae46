// Course evaluations: the MCAFE scenario of Section 8.5.
//
// 406 students rate a course 1-10 and report a country code. The country
// distribution is dominated by the US with a long tail, so the distinct
// fraction is high — the hard regime for PrivateClean. The analyst merges
// European country codes into one region (a transformation beyond
// traditional cleaning, enabled by GRR keeping values human-readable) and
// compares European and US enthusiasm. A registered isEurope UDF expresses
// the same predicate without cleaning, via Extract.
//
// Run with: go run ./examples/course_evaluations
package main

import (
	"fmt"
	"log"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/core"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(11))

	r, err := workload.MCAFE(rng, workload.MCAFEConfig{})
	if err != nil {
		log.Fatal(err)
	}
	n, _ := r.DomainSize("country")
	fmt.Printf("dataset: %d evaluations, %d distinct countries (distinct fraction %.0f%%)\n\n",
		r.NumRows(), n, float64(n)/float64(r.NumRows())*100)

	provider := core.NewProvider(r)
	view, err := provider.Release(rng, privacy.Uniform(r.Schema(), 0.15, 0.8))
	if err != nil {
		log.Fatal(err)
	}

	// --- Variant 1: merge European codes, then query the merged region.
	analyst := core.NewAnalyst(view)
	err = analyst.Clean(cleaning.Transform{
		Attr:  "country",
		Label: "europe-merge",
		F: func(v string) string {
			if workload.IsEurope(v) {
				return "Europe"
			}
			return v
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	countEU, err := analyst.Query("SELECT count(1) FROM evals WHERE country = 'Europe'")
	if err != nil {
		log.Fatal(err)
	}
	avgEU, err := analyst.Query("SELECT avg(score) FROM evals WHERE country = 'Europe'")
	if err != nil {
		log.Fatal(err)
	}
	avgUS, err := analyst.Query("SELECT avg(score) FROM evals WHERE country = 'US'")
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth.
	rClean := r.Clone()
	_ = cleaning.Apply(&cleaning.Context{Rel: rClean}, cleaning.Transform{
		Attr: "country",
		F: func(v string) string {
			if workload.IsEurope(v) {
				return "Europe"
			}
			return v
		},
	})
	exact := new(estimator.Estimator).Nominal() // the query as-is on rClean
	trueCountEU, _ := exact.Count(rClean, estimator.Eq("country", "Europe"))
	trueAvgEU, _ := exact.Avg(rClean, "score", estimator.Eq("country", "Europe"))
	trueAvgUS, _ := exact.Avg(rClean, "score", estimator.Eq("country", "US"))

	fmt.Println("after merging European country codes:")
	fmt.Printf("  European students:   truth %3.0f, estimate %s\n", trueCountEU.Value, countEU.PrivateClean)
	fmt.Printf("  European enthusiasm: truth %.2f, estimate %s\n", trueAvgEU.Value, avgEU.PrivateClean)
	fmt.Printf("  US enthusiasm:       truth %.2f, estimate %s\n\n", trueAvgUS.Value, avgUS.PrivateClean)

	// --- Variant 2: an Extract + UDF, no in-place cleaning.
	analyst2 := core.NewAnalyst(view)
	analyst2.RegisterUDF("isEurope", workload.IsEurope)
	err = analyst2.Clean(cleaning.Extract{
		SrcAttr: "country",
		NewAttr: "region",
		F: func(v string) string {
			if workload.IsEurope(v) {
				return "Europe"
			}
			return "Other"
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	viaExtract, err := analyst2.Query("SELECT count(1) FROM evals WHERE region = 'Europe'")
	if err != nil {
		log.Fatal(err)
	}
	viaUDF, err := analyst2.Query("SELECT count(1) FROM evals WHERE isEurope(country)")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("the same count three ways:")
	fmt.Printf("  merge + equality predicate: %s\n", countEU.PrivateClean)
	fmt.Printf("  extracted region attribute: %s\n", viaExtract.PrivateClean)
	fmt.Printf("  isEurope(country) UDF:      %s\n", viaUDF.PrivateClean)
}
