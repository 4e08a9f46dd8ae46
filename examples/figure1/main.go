// Figure 1: the paper's introductory figure as a live program.
//
// It prints the four panels of Figure 1: (a) the original table, (b) the
// private table after randomizing majors, (c) the private table after the
// analyst fixes the spelling inconsistency, and (d) the query result
// estimation — the average satisfaction per major with confidence
// intervals, next to the non-private truth.
//
// Run with: go run ./examples/figure1
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

var schema = relation.MustSchema(
	relation.Column{Name: "major", Kind: relation.Discrete},
	relation.Column{Name: "satisfaction", Kind: relation.Numeric},
)

func main() {
	rng := rand.New(rand.NewSource(23))

	// (a) The original table: two spellings of Mechanical Engineering and
	// a rare major whose single student needs plausible deniability.
	majors := []string{"Mechanical E.", "Mech. Eng.", "Electrical Eng.", "Nuclear Eng."}
	weights := []float64{0.35, 0.3, 0.33, 0.02}
	n := 100
	b := relation.NewBuilder(schema)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		var m string
		for j, w := range weights {
			if u < w {
				m = majors[j]
				break
			}
			u -= w
		}
		if m == "" {
			m = majors[len(majors)-1]
		}
		sat := 3.0 + rng.NormFloat64()
		if m != "Electrical Eng." {
			sat += 1 // Mechanical Engineers skew happier
		}
		if sat < 1 {
			sat = 1
		}
		if sat > 5 {
			sat = 5
		}
		b.Append(map[string]float64{"satisfaction": float64(int(sat))}, map[string]string{"major": m})
	}
	r, err := b.Relation()
	if err != nil {
		log.Fatal(err)
	}
	printPanel("(a) Original Table", r, 4)

	// (b) Randomize majors (and noise the scores): the rare Nuclear Eng.
	// student can now deny the row is theirs.
	provider := core.NewProvider(r)
	view, err := provider.Release(rng, privacy.Uniform(schema, 0.25, 0.3))
	if err != nil {
		log.Fatal(err)
	}
	printPanel("(b) Private Table [Randomize Majors]", view.Rel, 4)

	// (c) Fix inconsistencies on the private table.
	analyst := core.NewAnalyst(view)
	err = analyst.Clean(cleaning.FindReplace{
		Attr: "major", From: "Mechanical E.", To: "Mech. Eng.",
	})
	if err != nil {
		log.Fatal(err)
	}
	printPanel("(c) Fix Inconsistencies", analyst.Relation(), 4)

	// (d) Query result estimation.
	fmt.Println("(d) Query Result Estimation")
	fmt.Printf("  %-20s %-22s %s\n", "major", "AVG (PrivateClean)", "AVG (truth)")
	rClean := r.Clone()
	_ = cleaning.Apply(&cleaning.Context{Rel: rClean},
		cleaning.FindReplace{Attr: "major", From: "Mechanical E.", To: "Mech. Eng."})
	for _, m := range []string{"Mech. Eng.", "Electrical Eng."} {
		res, err := analyst.Query(fmt.Sprintf("SELECT avg(satisfaction) FROM R WHERE major = '%s'", m))
		if err != nil {
			log.Fatal(err)
		}
		truth, err := new(estimator.Estimator).Nominal().Avg(rClean, "satisfaction", estimator.Eq("major", m))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-20s %-22s %.2f\n", m, res.PrivateClean.String(), truth.Value)
	}
}

// printPanel shows the first few rows of a relation like the paper's figure.
func printPanel(title string, r *relation.Relation, rows int) {
	fmt.Println(title)
	fmt.Printf("  %-4s %-20s %s\n", "id", "major", "satisfaction")
	for i := 0; i < rows && i < r.NumRows(); i++ {
		row, _ := r.Row(i)
		fmt.Printf("  %-4d %-20s %.0f\n", i+1, row.Discrete["major"], row.Numeric["satisfaction"])
	}
	fmt.Println("  ...")
	fmt.Println()
}
