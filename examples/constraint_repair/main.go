// Constraint repair: the TPC-DS customer_address scenario of Section 8.3.4.
//
// A customer_address table satisfies the functional dependency
// [ca_city, ca_county] -> ca_state and a matching dependency on ca_country.
// Corruptions violate both: random state replacements and one-character
// appends to countries. The analyst repairs the *private* view with a
// cost-based FD repair and an edit-distance MD repair, then runs
// per-state and per-country count queries.
//
// Run with: go run ./examples/constraint_repair
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"privateclean/internal/cleaning"
	"privateclean/internal/core"
	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/workload"
)

func main() {
	rng := rand.New(rand.NewSource(3))

	cfg := workload.TPCDSConfig{Rows: 8000}.WithDefaults()
	r, err := workload.CustomerAddress(rng, cfg)
	if err != nil {
		log.Fatal(err)
	}
	// Corrupt 400 states and 400 countries.
	if err := workload.CorruptStates(rng, r, 400, cfg.States); err != nil {
		log.Fatal(err)
	}
	if err := workload.CorruptCountries(rng, r, 400); err != nil {
		log.Fatal(err)
	}

	repairs := []cleaning.Op{
		cleaning.FDRepair{LHS: []string{"ca_city"}, RHS: "ca_county"},
		cleaning.FDRepair{LHS: []string{"ca_city", "ca_county"}, RHS: "ca_state"},
		cleaning.MDRepair{Attr: "ca_country", MaxDist: 1},
	}

	// Ground truth: repairs applied to the original.
	rClean := r.Clone()
	if err := cleaning.Apply(&cleaning.Context{Rel: rClean}, repairs...); err != nil {
		log.Fatal(err)
	}

	// Provider releases; analyst repairs the private view.
	provider := core.NewProvider(r)
	view, err := provider.Release(rng, privacy.Uniform(r.Schema(), 0.1, 0))
	if err != nil {
		log.Fatal(err)
	}
	analyst := core.NewAnalyst(view)
	if err := analyst.Clean(repairs...); err != nil {
		log.Fatal(err)
	}

	fmt.Println("SELECT count(1) FROM customer_address GROUP BY ca_country")
	res, err := analyst.Query("SELECT count(1) FROM customer_address GROUP BY ca_country")
	if err != nil {
		log.Fatal(err)
	}
	truth, err := rClean.ValueCounts("ca_country")
	if err != nil {
		log.Fatal(err)
	}
	var pcErr, directErr float64
	groups := 0
	for g, ge := range res.Groups {
		want := float64(truth[g])
		if want == 0 {
			continue
		}
		fmt.Printf("  %-16s truth=%6.0f  privateclean=%8.1f ± %6.1f  direct=%6.0f\n",
			g, want, ge.PrivateClean.Value, ge.PrivateClean.CI, ge.Direct)
		pcErr += math.Abs(ge.PrivateClean.Value-want) / want
		directErr += math.Abs(ge.Direct-want) / want
		groups++
	}
	fmt.Printf("mean per-group error: privateclean %.2f%%, direct %.2f%%\n\n",
		pcErr/float64(groups)*100, directErr/float64(groups)*100)

	// A state-level predicate query for good measure.
	pred := estimator.Eq("ca_state", workload.StateValue(0))
	trueState, _ := new(estimator.Estimator).Nominal().Count(rClean, pred)
	est, err := analyst.Estimator().Count(analyst.Relation(), pred)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("count(ca_state = %s): truth %.0f, privateclean %s\n",
		workload.StateValue(0), trueState.Value, est)
}
