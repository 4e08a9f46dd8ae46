// Extensions: the Section 10 features on one dataset.
//
//   - epsilon budgeting (Section 4.2.3): allocate one total ε across all
//     attributes instead of hand-picking (p, b);
//   - domain-preserving release (Section 4.3): regenerate the view until
//     every domain value survives randomization;
//   - median / var / std aggregates (noise-median robustness and the 2b²
//     variance correction);
//   - conjunctive predicates over two discrete attributes (the SPJ-view
//     channel product);
//   - Explain: the channel parameters behind an estimate.
//
// Run with: go run ./examples/extensions
package main

import (
	"errors"
	"fmt"
	"log"
	"math/rand"

	"privateclean/internal/core"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

var schema = relation.MustSchema(
	relation.Column{Name: "major", Kind: relation.Discrete},
	relation.Column{Name: "section", Kind: relation.Discrete},
	relation.Column{Name: "score", Kind: relation.Numeric},
)

func main() {
	rng := rand.New(rand.NewSource(17))
	r := buildEvals(rng, 3000)

	// --- Budget allocation ---------------------------------------------
	// One total epsilon, split uniformly over the three attributes.
	const totalEps = 6.0
	domains, _, deltas, err := privacy.Summarize(r)
	if err != nil {
		log.Fatal(err)
	}
	params, err := privacy.AllocateEpsilon(r.Schema(), domains, deltas, totalEps)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allocated eps=%.1f: p(major)=%.3f p(section)=%.3f b(score)=%.3f\n",
		totalEps, params.P["major"], params.P["section"], params.B["score"])

	// --- Domain-preserving release ---------------------------------------
	v, meta, err := privacy.PrivatizePreservingDomain(rng, r, params, 20)
	if err != nil && !errors.Is(err, privacy.ErrDomainMasked) {
		log.Fatal(err)
	}
	view := &core.View{Rel: v, Meta: meta}
	fmt.Printf("released %d rows at total eps=%.2f\n\n", v.NumRows(), view.Epsilon())

	analyst := core.NewAnalyst(view)

	// --- Extension aggregates --------------------------------------------
	for _, sql := range []string{
		"SELECT median(score) FROM evals",
		"SELECT var(score) FROM evals",
		"SELECT std(score) FROM evals",
		"SELECT median(score) FROM evals WHERE major = 'ME'",
	} {
		res, err := analyst.Query(sql)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-55s -> %s\n", sql, res.PrivateClean)
	}

	// Ground truth for the corrected variance.
	exact := new(estimator.Estimator).Nominal() // the query as-is on r
	trueVar, _ := exact.Var(r, "score", estimator.Predicate{})
	fmt.Printf("%-55s -> %.4f\n\n", "true var(score)", trueVar.Value)

	// --- Conjunctive predicates ------------------------------------------
	sql := "SELECT count(1) FROM evals WHERE major = 'ME' AND section = '1'"
	res, err := analyst.Query(sql)
	if err != nil {
		log.Fatal(err)
	}
	truth, _ := exact.CountConj(r,
		estimator.Eq("major", "ME"), estimator.Eq("section", "1"))
	fmt.Printf("%s\n  estimate %s (truth %.0f, direct %.0f)\n\n",
		sql, res.PrivateClean, truth.Value, res.Direct)

	// --- Explain ----------------------------------------------------------
	ex, err := analyst.Explain("SELECT count(1) FROM evals WHERE major = 'ME'")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("explain: %s\n", ex)
}

// buildEvals generates correlated majors/sections with bimodal scores.
func buildEvals(rng *rand.Rand, n int) *relation.Relation {
	majors := make([]string, n)
	sections := make([]string, n)
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		m := []string{"ME", "EE", "CS", "Math"}[rng.Intn(4)]
		majors[i] = m
		// ME students cluster in section 1.
		if m == "ME" && rng.Float64() < 0.7 {
			sections[i] = "1"
		} else {
			sections[i] = []string{"1", "2", "3"}[rng.Intn(3)]
		}
		base := 3.0
		if m == "ME" {
			base = 4.0
		}
		s := base + rng.NormFloat64()*0.8
		if s < 0 {
			s = 0
		}
		if s > 5 {
			s = 5
		}
		scores[i] = s
	}
	r, err := relation.FromColumns(schema,
		map[string][]float64{"score": scores},
		map[string][]string{"major": majors, "section": sections})
	if err != nil {
		log.Fatal(err)
	}
	return r
}
