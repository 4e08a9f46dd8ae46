package estimator_test

import (
	"fmt"
	"log"
	"math/rand"

	"privateclean/internal/estimator"
	"privateclean/internal/privacy"
	"privateclean/internal/relation"
)

// ExampleEstimator_Count shows the Eq. 3 bias correction on a skewed
// relation: the rare value's nominal private count is wildly inflated by
// randomized response; the corrected estimate recovers the truth in
// expectation.
func ExampleEstimator_Count() {
	schema := relation.MustSchema(relation.Column{Name: "major", Kind: relation.Discrete})
	col := make([]string, 1000)
	for i := range col {
		if i < 990 {
			col[i] = "Common"
		} else {
			col[i] = "Rare"
		}
	}
	r, err := relation.FromColumns(schema, nil, map[string][]string{"major": col})
	if err != nil {
		log.Fatal(err)
	}

	// Average both estimators over many private releases.
	const trials = 2000
	var direct, corrected float64
	for i := 0; i < trials; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		v, meta, err := privacy.Privatize(rng, r, privacy.Uniform(schema, 0.3, 0))
		if err != nil {
			log.Fatal(err)
		}
		pred := estimator.Eq("major", "Rare")
		est := estimator.Estimator{Meta: meta}
		d, err := est.Nominal().Count(v, pred)
		if err != nil {
			log.Fatal(err)
		}
		direct += d.Value
		c, err := est.Count(v, pred)
		if err != nil {
			log.Fatal(err)
		}
		corrected += c.Value
	}
	// Direct's expectation is 10·0.85 + 990·0.15 = 157; the corrected
	// estimator's is the truth, 10 (the 2000-trial average lands at 10.5).
	fmt.Printf("truth 10, direct ~%.0f, corrected ~%.0f\n",
		direct/trials, corrected/trials)
	// Output:
	// truth 10, direct ~157, corrected ~11
}
